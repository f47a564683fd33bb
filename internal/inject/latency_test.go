package inject

import (
	"testing"

	"cnnsfi/internal/evalstats"
	"cnnsfi/internal/faultmodel"
)

// unmaskedFault returns a fault newTestInjector's network evaluates in
// full (never masked), so alloc and latency tests exercise the
// inference path.
func unmaskedFault(t *testing.T, inj *Injector) faultmodel.Fault {
	t.Helper()
	space := inj.Space()
	for j := int64(0); j < space.Total(); j++ {
		f := space.GlobalFault(j)
		if !inj.Masked(f) {
			return f
		}
	}
	t.Fatal("no unmasked fault in space")
	return faultmodel.Fault{}
}

// TestLatencyHistogramObserves checks the LatencySampler seam: with a
// histogram installed, each fully evaluated experiment records one
// observation, masked skips record none, and clones feed the shared
// histogram.
func TestLatencyHistogramObserves(t *testing.T) {
	inj := newTestInjector(t)
	var h evalstats.Histogram
	inj.SetLatencyHistogram(&h)

	f := unmaskedFault(t, inj)
	inj.IsCritical(f)
	if got := h.Snapshot().Count; got != 1 {
		t.Fatalf("after 1 evaluated experiment: histogram count = %d, want 1", got)
	}

	// A masked stuck-at is classified without inference and must not be
	// timed.
	masked := f
	for j := int64(0); j < inj.Space().Total(); j++ {
		if c := inj.Space().GlobalFault(j); inj.Masked(c) {
			masked = c
			break
		}
	}
	inj.IsCritical(masked)
	if got := h.Snapshot().Count; got != 1 {
		t.Fatalf("masked skip was timed: histogram count = %d, want 1", got)
	}

	// Clones inherit the histogram pointer and observe into the shared
	// instance.
	clone := inj.Clone()
	clone.IsCritical(f)
	if got := h.Snapshot().Count; got != 2 {
		t.Fatalf("after clone experiment: histogram count = %d, want 2", got)
	}

	if s := h.Snapshot(); s.Sum <= 0 {
		t.Errorf("Sum = %v, want > 0", s.Sum)
	}
	if inj.MismatchCount(f); h.Snapshot().Count != 3 {
		t.Errorf("MismatchCount not timed: count = %d, want 3", h.Snapshot().Count)
	}
}

// TestIsCriticalAllocs pins the telemetry invariant on the experiment
// hot path: zero steady-state allocations per experiment, evaluated and
// masked alike, both with the latency histogram disabled (the
// telemetry-off guarantee) and enabled (Observe is allocation-free and
// the timing code adds no escaping closures).
func TestIsCriticalAllocs(t *testing.T) {
	inj := newTestInjector(t)
	f := unmaskedFault(t, inj)
	masked := f // the other stuck value: the bit already holds it
	masked.Model = faultmodel.StuckAt1
	if f.Model == faultmodel.StuckAt1 {
		masked.Model = faultmodel.StuckAt0
	}
	if !inj.Masked(masked) {
		t.Fatalf("%v is not masked", masked)
	}

	// Warm up: grows the arena and the scratch slice to steady state.
	inj.IsCritical(f)

	var h evalstats.Histogram
	for _, telemetry := range []string{"off", "on"} {
		if telemetry == "on" {
			inj.SetLatencyHistogram(&h)
		}
		if n := testing.AllocsPerRun(50, func() { inj.IsCritical(f) }); n != 0 {
			t.Errorf("telemetry %s: %.1f allocs per experiment, want 0", telemetry, n)
		}
		if n := testing.AllocsPerRun(50, func() { inj.IsCritical(masked) }); n != 0 {
			t.Errorf("telemetry %s: %.1f allocs per masked short-circuit, want 0", telemetry, n)
		}
	}
	if h.Snapshot().Count == 0 {
		t.Error("histogram saw no observations during the alloc runs")
	}
}
