package inject

import (
	"math"
	"math/rand"
	"testing"

	"cnnsfi/internal/dataset"
	"cnnsfi/internal/faultmodel"
	"cnnsfi/internal/models"
	"cnnsfi/internal/oracle"
	"cnnsfi/internal/tensor"
)

// This file is the differential test harness for the allocation-free
// hot path: a reference evaluator with none of its optimizations —
// Apply + closure restore, a full heap forward pass per image, no
// prefix cache, no chunks, no channel-partial recompute, no
// masked-fault short-circuit, no SDC early-exit accounting — is run
// against IsCritical and MismatchCount over thousands of seeded random
// faults per criterion, on both fault models and both evaluation
// substrates.

// referencePredict is the top-1 of a full heap forward pass of the
// (possibly faulted) network on one image.
func referencePredict(inj *Injector, img *tensor.Tensor) int {
	return predictChecked(inj.Net.Forward(img).Data)
}

// referenceIsCritical is the unoptimized classification path: it runs
// every image through the whole network on the heap and evaluates
// every fault fully (masked or not).
func referenceIsCritical(inj *Injector, f faultmodel.Fault) bool {
	restore := inj.Apply(f)
	defer restore()

	mismatches := 0
	correct := 0
	for i, img := range inj.images {
		pred := referencePredict(inj, img)
		if pred != inj.golden[i] {
			mismatches++
			if inj.Criterion == SDC {
				return true
			}
		}
		if pred == inj.labels[i] {
			correct++
		}
	}

	switch inj.Criterion {
	case SDC:
		return mismatches > 0
	case AccuracyDrop:
		return float64(correct)/float64(len(inj.images)) < inj.acc
	case MismatchRate:
		return float64(mismatches)/float64(len(inj.images)) > inj.Threshold
	default:
		panic("unsupported criterion")
	}
}

// referenceMismatchCount is the unoptimized MismatchCount.
func referenceMismatchCount(inj *Injector, f faultmodel.Fault) int {
	restore := inj.Apply(f)
	defer restore()

	mismatches := 0
	for i, img := range inj.images {
		if referencePredict(inj, img) != inj.golden[i] {
			mismatches++
		}
	}
	return mismatches
}

// randomFault draws a uniformly random fault: location from the
// network's universe, model uniformly over StuckAt0/StuckAt1/BitFlip —
// covering both the permanent stuck-at campaigns and the transient-flip
// model, and (via stuck-at on uniformly random bits) a ~50% masked mix.
func randomFault(r *rand.Rand, space faultmodel.Space) faultmodel.Fault {
	f := space.GlobalFault(r.Int63n(space.Total()))
	if r.Intn(3) == 0 {
		f.Model = faultmodel.BitFlip
	}
	return f
}

// TestDifferentialInference pits the optimized IsCritical against the
// reference evaluator on the real-inference substrate: ≥5000 seeded
// random faults per criterion, all three criteria, stuck-at and
// bit-flip models. Any divergence — a masked fault misclassified, an
// early exit changing a verdict, an arena buffer leaking state between
// experiments — fails with the exact fault that exposed it.
func TestDifferentialInference(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness runs thousands of inference experiments")
	}
	const faultsPerCriterion = 5000

	// A small evaluation set keeps the reference side (which evaluates
	// every fault fully, no masking) affordable; determinism does not
	// depend on the set size.
	net := models.SmallCNN(1)
	ds := dataset.Synthetic(dataset.Config{N: 4, Seed: 1, Size: 16})

	for _, crit := range []Criterion{SDC, AccuracyDrop, MismatchRate} {
		crit := crit
		t.Run(crit.String(), func(t *testing.T) {
			inj := New(net.Clone(), ds)
			inj.Criterion = crit
			inj.Threshold = 0.25 // make MismatchRate distinguishable from SDC

			r := rand.New(rand.NewSource(42 + int64(crit)))
			masked := 0
			for i := 0; i < faultsPerCriterion; i++ {
				f := randomFault(r, inj.Space())
				if inj.Masked(f) {
					masked++
				}
				want := referenceIsCritical(inj, f)
				got := inj.IsCritical(f)
				if got != want {
					t.Fatalf("fault #%d %v: fast path = %v, reference = %v", i, f, got, want)
				}
			}
			// The harness must actually exercise the short-circuit: with
			// uniform bits roughly a third of draws are masked stuck-ats.
			if masked < faultsPerCriterion/10 {
				t.Errorf("only %d/%d faults were masked; harness not covering the short-circuit", masked, faultsPerCriterion)
			}
			if got := inj.EvalStats(); got.Skipped != int64(masked) {
				t.Errorf("EvalStats.Skipped = %d, want %d", got.Skipped, masked)
			}
		})
	}
}

// TestDifferentialMismatchCount does the same for MismatchCount, whose
// masked short-circuit must return exactly 0 mismatches.
func TestDifferentialMismatchCount(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness runs thousands of inference experiments")
	}
	net := models.SmallCNN(1)
	ds := dataset.Synthetic(dataset.Config{N: 4, Seed: 1, Size: 16})
	inj := New(net, ds)

	r := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		f := randomFault(r, inj.Space())
		want := referenceMismatchCount(inj, f)
		got := inj.MismatchCount(f)
		if got != want {
			t.Fatalf("fault #%d %v: MismatchCount fast path = %d, reference = %d", i, f, got, want)
		}
	}
}

// TestDifferentialWeightsRestored guards the inline mutate-and-restore:
// after any number of fast-path experiments the weights must be
// bit-identical to the golden network's.
func TestDifferentialWeightsRestored(t *testing.T) {
	inj := newTestInjector(t)
	golden := models.SmallCNN(1).WeightLayers()
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		inj.IsCritical(randomFault(r, inj.Space()))
	}
	for l, wl := range inj.Net.WeightLayers() {
		w, g := wl.WeightData(), golden[l].WeightData()
		for p := range w {
			if math.Float32bits(w[p]) != math.Float32bits(g[p]) {
				t.Fatalf("layer %d param %d: weight 0x%08x differs from golden 0x%08x after restore",
					l, p, math.Float32bits(w[p]), math.Float32bits(g[p]))
			}
		}
	}
}

// TestDifferentialOracle pins the oracle substrate the same way:
// IsCritical (with the masked short-circuit) must agree with
// IsCriticalReference (the full perturbation-model path) on every fault.
// The oracle verdict is O(1), so this sweeps a much larger sample.
func TestDifferentialOracle(t *testing.T) {
	net := models.SmallCNN(1)
	o := oracle.New(net, oracle.DefaultConfig(3))

	r := rand.New(rand.NewSource(99))
	disagree := 0
	const n = 50000
	for i := 0; i < n; i++ {
		f := randomFault(r, o.Space())
		if got, want := o.IsCritical(f), o.IsCriticalReference(f); got != want {
			disagree++
			if disagree <= 5 {
				t.Errorf("fault %v: oracle fast = %v, reference = %v", f, got, want)
			}
		}
	}
	if disagree > 0 {
		t.Fatalf("%d/%d oracle verdicts diverged", disagree, n)
	}
	s := o.EvalStats()
	if s.Skipped+s.Evaluated != n {
		t.Errorf("oracle EvalStats: skipped %d + evaluated %d != %d verdicts", s.Skipped, s.Evaluated, n)
	}
	if s.Skipped < n/10 {
		t.Errorf("oracle skipped only %d/%d; masked short-circuit not exercised", s.Skipped, n)
	}
}
