package inject

import (
	"math/rand"
	"testing"

	"cnnsfi/internal/evalstats"
	"cnnsfi/internal/faultmodel"
)

// SetBatchSize is kept for compatibility and does nothing: every
// experiment evaluates one image per faulted forward pass. These tests
// pin that the knob stays harmless — it neither rebuilds nor detaches
// the golden state, changes no verdict, and adds no allocation.

// TestSetBatchSizeBuildsEagerly checks that the golden state is built
// by New, not on demand: after SetBatchSize a clone taken at once — as
// the engine takes its worker clones, before the first experiment —
// shares the inputs and caches, and evaluating on the clone never
// rebuilds them.
func TestSetBatchSizeBuildsEagerly(t *testing.T) {
	inj := newTestInjector(t)
	inj.SetBatchSize(4)
	if len(inj.inputs) != inj.NumImages() || len(inj.caches) != inj.NumImages() {
		t.Fatalf("built %d inputs and %d caches for %d images",
			len(inj.inputs), len(inj.caches), inj.NumImages())
	}
	c := inj.Clone()
	if &c.inputs[0] != &inj.inputs[0] || &c.caches[0] != &inj.caches[0] {
		t.Fatal("a clone taken right after SetBatchSize does not share the golden state")
	}
	c.IsCritical(unmaskedFault(t, c))
	if &c.inputs[0] != &inj.inputs[0] || &c.caches[0] != &inj.caches[0] {
		t.Fatal("an experiment on the clone rebuilt the golden state")
	}
}

// TestBatchedCloneSharesGoldenState checks that a clone of an injector
// given a batch size shares the immutable inputs and caches, owns its
// own scratch, and returns the same verdicts as its root.
func TestBatchedCloneSharesGoldenState(t *testing.T) {
	inj := newTestInjector(t)
	inj.SetBatchSize(4)
	r := rand.New(rand.NewSource(21))
	inj.IsCritical(unmaskedFault(t, inj)) // the root's scratch is now in use

	c := inj.Clone()
	if &c.inputs[0] != &inj.inputs[0] || &c.caches[0] != &inj.caches[0] {
		t.Fatal("clone does not share the golden inputs and caches")
	}
	if c.scratch != nil {
		t.Fatal("clone inherited the root's scratch; it must be per-instance")
	}
	for i := 0; i < 200; i++ {
		f := randomFault(r, inj.Space())
		if got, want := c.IsCritical(f), inj.IsCritical(f); got != want {
			t.Fatalf("fault #%d %v: clone = %v, root = %v", i, f, got, want)
		}
	}
}

// TestSetBatchSizeInvalidates checks that resizing leaves the golden
// state in place and every verdict unchanged.
func TestSetBatchSizeInvalidates(t *testing.T) {
	inj := newTestInjector(t)
	inputs, caches := &inj.inputs[0], &inj.caches[0]
	r := rand.New(rand.NewSource(33))
	faults := make([]faultmodel.Fault, 50)
	want := make([]bool, len(faults))
	for i := range faults {
		faults[i] = randomFault(r, inj.Space())
		want[i] = inj.IsCritical(faults[i])
	}
	for _, size := range []int{4, 3, 8, 1, 5, 0} {
		inj.SetBatchSize(size)
		if &inj.inputs[0] != inputs || &inj.caches[0] != caches {
			t.Fatalf("size %d: SetBatchSize replaced the golden state", size)
		}
		for i, f := range faults {
			if got := inj.IsCritical(f); got != want[i] {
				t.Fatalf("size %d fault #%d %v: verdict %v, want %v", size, i, f, got, want[i])
			}
		}
	}
}

// TestBatchedSteadyStateAllocFree pins the hot path at zero heap
// allocations once the arena is warm, with a batch size set — with the
// latency histogram disabled and enabled (telemetry off / on).
func TestBatchedSteadyStateAllocFree(t *testing.T) {
	for _, telemetry := range []bool{false, true} {
		name := "telemetry-off"
		if telemetry {
			name = "telemetry-on"
		}
		t.Run(name, func(t *testing.T) {
			inj := newTestInjector(t)
			inj.SetBatchSize(4)
			if telemetry {
				var h evalstats.Histogram
				inj.SetLatencyHistogram(&h)
			}
			f := unmaskedFault(t, inj)
			inj.IsCritical(f) // warm the arena and the scratch view
			if allocs := testing.AllocsPerRun(20, func() { inj.IsCritical(f) }); allocs != 0 {
				t.Fatalf("warm IsCritical allocates %.1f times per run, want 0", allocs)
			}
			masked := f // the other stuck value: the bit already holds it
			masked.Model = faultmodel.StuckAt1
			if f.Model == faultmodel.StuckAt1 {
				masked.Model = faultmodel.StuckAt0
			}
			if allocs := testing.AllocsPerRun(20, func() { inj.IsCritical(masked) }); allocs != 0 {
				t.Fatalf("masked short-circuit allocates %.1f times per run, want 0", allocs)
			}
		})
	}
}
