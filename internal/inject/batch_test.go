package inject

import (
	"math/rand"
	"testing"

	"cnnsfi/internal/dataset"
	"cnnsfi/internal/evalstats"
	"cnnsfi/internal/faultmodel"
	"cnnsfi/internal/fp"
	"cnnsfi/internal/models"
)

// This file extends the differential harness to the batched evaluation
// path: SetBatchSize must change wall time only, never a verdict, a
// mismatch count, or an EvalStats counter.

// TestDifferentialBatched pits the batched IsCritical against the
// pre-optimization reference evaluator: ≥5000 seeded random faults per
// criterion on the inference substrate, with a batch size (4 over a
// 6-image set) that exercises both a full chunk and a remainder chunk.
// It simultaneously runs an unbatched twin over the same fault stream
// and requires the Skipped/Evaluated/EarlyExits counters to match
// exactly — the SDC early-exit accounting must be image-accurate, not
// chunk-accurate.
func TestDifferentialBatched(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness runs thousands of inference experiments")
	}
	const faultsPerCriterion = 5000

	net := models.SmallCNN(1)
	ds := dataset.Synthetic(dataset.Config{N: 6, Seed: 1, Size: 16})

	for _, crit := range []Criterion{SDC, AccuracyDrop, MismatchRate} {
		crit := crit
		t.Run(crit.String(), func(t *testing.T) {
			batched := New(net.Clone(), ds)
			batched.Criterion = crit
			batched.Threshold = 0.25
			batched.SetBatchSize(4)

			plain := New(net.Clone(), ds)
			plain.Criterion = crit
			plain.Threshold = 0.25

			r := rand.New(rand.NewSource(42 + int64(crit)))
			for i := 0; i < faultsPerCriterion; i++ {
				f := randomFault(r, batched.Space())
				want := referenceIsCritical(plain, f)
				if got := plain.IsCritical(f); got != want {
					t.Fatalf("fault #%d %v: unbatched = %v, reference = %v", i, f, got, want)
				}
				if got := batched.IsCritical(f); got != want {
					t.Fatalf("fault #%d %v: batched = %v, reference = %v", i, f, got, want)
				}
			}

			b, p := batched.EvalStats(), plain.EvalStats()
			if b.Skipped != p.Skipped || b.Evaluated != p.Evaluated || b.EarlyExits != p.EarlyExits {
				t.Errorf("EvalStats diverge: batched {skipped %d, evaluated %d, earlyExits %d}, unbatched {%d, %d, %d}",
					b.Skipped, b.Evaluated, b.EarlyExits, p.Skipped, p.Evaluated, p.EarlyExits)
			}
			if b.Evaluated == 0 || (crit == SDC && b.EarlyExits == 0) {
				t.Errorf("harness did not exercise the batched loop: %+v", b)
			}
		})
	}
}

// TestDifferentialBatchedMismatchCount does the same for MismatchCount
// with a batch size that leaves a single-image remainder chunk.
func TestDifferentialBatchedMismatchCount(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness runs thousands of inference experiments")
	}
	net := models.SmallCNN(1)
	ds := dataset.Synthetic(dataset.Config{N: 4, Seed: 1, Size: 16})
	inj := New(net, ds)
	inj.SetBatchSize(3) // chunks of 3 and 1

	r := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		f := randomFault(r, inj.Space())
		want := referenceMismatchCount(inj, f)
		if got := inj.MismatchCount(f); got != want {
			t.Fatalf("fault #%d %v: batched MismatchCount = %d, reference = %d", i, f, got, want)
		}
	}
}

// TestSetBatchSizeBuildsEagerly checks that SetBatchSize builds the
// golden chunks at once, so a clone taken right after it — as the
// engine takes its worker clones, before the first experiment — shares
// them, and that evaluating on the clone never rebuilds them.
func TestSetBatchSizeBuildsEagerly(t *testing.T) {
	inj := newTestInjector(t)
	inj.SetBatchSize(4)
	if len(inj.batchInputs) != 2 || inj.batchInputs[0].Shape[0] != 4 {
		t.Fatalf("SetBatchSize(4) over 8 images built %d chunks, want 2 of 4", len(inj.batchInputs))
	}
	c := inj.Clone()
	if len(c.batchInputs) == 0 || &c.batchInputs[0] != &inj.batchInputs[0] || &c.batchCaches[0] != &inj.batchCaches[0] {
		t.Fatal("a clone taken right after SetBatchSize does not share the golden chunks")
	}
	c.IsCritical(unmaskedStuckAt(c))
	if &c.batchInputs[0] != &inj.batchInputs[0] {
		t.Fatal("an experiment on the clone rebuilt the golden chunks")
	}
}

// TestBatchedCloneSharesGoldenState checks that a clone inherits the
// batch size, shares the immutable chunks and caches, owns its own
// scratch, and returns the same verdicts as its root.
func TestBatchedCloneSharesGoldenState(t *testing.T) {
	inj := newTestInjector(t)
	inj.SetBatchSize(4)
	r := rand.New(rand.NewSource(21))
	inj.IsCritical(randomFault(r, inj.Space())) // the root's scratch is now in use

	c := inj.Clone()
	if c.BatchSize() != 4 {
		t.Fatalf("clone batch size = %d, want 4", c.BatchSize())
	}
	if len(c.batchInputs) == 0 || &c.batchInputs[0] != &inj.batchInputs[0] {
		t.Fatal("clone does not share the built batch inputs")
	}
	if len(c.batchScratch) != 0 {
		t.Fatal("clone inherited the root's batchScratch; it must be per-instance")
	}
	for i := 0; i < 200; i++ {
		f := randomFault(r, inj.Space())
		if got, want := c.IsCritical(f), inj.IsCritical(f); got != want {
			t.Fatalf("fault #%d %v: clone = %v, root = %v", i, f, got, want)
		}
	}
}

// TestSetBatchSizeInvalidates checks that resizing replaces the built
// state with chunks of the new size (one image each at size 0/1) —
// with verdicts unchanged throughout.
func TestSetBatchSizeInvalidates(t *testing.T) {
	inj := newTestInjector(t)
	r := rand.New(rand.NewSource(33))
	faults := make([]faultmodel.Fault, 50)
	want := make([]bool, len(faults))
	for i := range faults {
		faults[i] = randomFault(r, inj.Space())
		want[i] = inj.IsCritical(faults[i])
	}
	for _, size := range []int{4, 3, 8, 1, 5, 0} {
		inj.SetBatchSize(size)
		if got, want := inj.batchInputs[0].Shape[0], min(max(size, 1), inj.NumImages()); got != want {
			t.Fatalf("size %d: first chunk holds %d images, want %d", size, got, want)
		}
		for i, f := range faults {
			if got := inj.IsCritical(f); got != want[i] {
				t.Fatalf("size %d fault #%d %v: verdict %v, want %v", size, i, f, got, want[i])
			}
		}
	}
}

// unmaskedStuckAt returns a layer-0 stuck-at fault guaranteed not to be
// masked (it targets whichever stuck value bit 0 does not already hold).
func unmaskedStuckAt(inj *Injector) faultmodel.Fault {
	f := faultmodel.Fault{Layer: 0, Param: 0, Bit: 0, Model: faultmodel.StuckAt1}
	if fp.Bit32(inj.layers[0].WeightData()[0], 0) {
		f.Model = faultmodel.StuckAt0
	}
	return f
}

// TestBatchedSteadyStateAllocFree pins the batched hot path at zero
// heap allocations once the batch state and arena are warm — with the
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
			f := unmaskedStuckAt(inj)
			inj.IsCritical(f) // warm the arena and the scratch view
			if allocs := testing.AllocsPerRun(20, func() { inj.IsCritical(f) }); allocs != 0 {
				t.Fatalf("warm batched IsCritical allocates %.1f times per run, want 0", allocs)
			}
			masked := f
			masked.Model = faultmodel.StuckAt0
			if masked.Model == f.Model {
				masked.Model = faultmodel.StuckAt1
			}
			if allocs := testing.AllocsPerRun(20, func() { inj.IsCritical(masked) }); allocs != 0 {
				t.Fatalf("masked short-circuit allocates %.1f times per run on the batched path, want 0", allocs)
			}
		})
	}
}
