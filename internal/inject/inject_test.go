package inject

import (
	"testing"

	"cnnsfi/internal/dataset"
	"cnnsfi/internal/faultmodel"
	"cnnsfi/internal/fp"
	"cnnsfi/internal/models"
)

func newTestInjector(t *testing.T) *Injector {
	t.Helper()
	net := models.SmallCNN(1)
	ds := dataset.Synthetic(dataset.Config{N: 8, Seed: 1, Size: 16})
	return New(net, ds)
}

func TestGoldenStateIsConsistent(t *testing.T) {
	inj := newTestInjector(t)
	if inj.NumImages() != 8 {
		t.Fatalf("images = %d", inj.NumImages())
	}
	preds := inj.GoldenPredictions()
	if len(preds) != 8 {
		t.Fatalf("golden preds = %d", len(preds))
	}
	// Golden predictions must be reproducible by plain Forward.
	ds := dataset.Synthetic(dataset.Config{N: 8, Seed: 1, Size: 16})
	for i, s := range ds.Samples {
		if got := inj.Net.Predict(s.Image); got != preds[i] {
			t.Errorf("image %d: Predict = %d, golden = %d", i, got, preds[i])
		}
	}
	if acc := inj.GoldenAccuracy(); acc < 0 || acc > 1 {
		t.Errorf("accuracy = %v", acc)
	}
}

func TestApplyAndRestore(t *testing.T) {
	inj := newTestInjector(t)
	w := inj.Net.WeightLayers()[0].WeightData()
	before := w[3]

	f := faultmodel.Fault{Layer: 0, Param: 3, Bit: 30, Model: faultmodel.StuckAt1}
	restore := inj.Apply(f)
	if w[3] != fp.SetBit32(before, 30) {
		t.Errorf("fault not applied: %v", w[3])
	}
	restore()
	if w[3] != before {
		t.Error("restore failed")
	}
}

func TestApplyAllModels(t *testing.T) {
	inj := newTestInjector(t)
	w := inj.Net.WeightLayers()[1].WeightData()
	before := w[0]

	sa0 := faultmodel.Fault{Layer: 1, Param: 0, Bit: 5, Model: faultmodel.StuckAt0}
	r := inj.Apply(sa0)
	if fp.Bit32(w[0], 5) {
		t.Error("sa0 did not clear bit")
	}
	r()

	sa1 := faultmodel.Fault{Layer: 1, Param: 0, Bit: 5, Model: faultmodel.StuckAt1}
	r = inj.Apply(sa1)
	if !fp.Bit32(w[0], 5) {
		t.Error("sa1 did not set bit")
	}
	r()
	if w[0] != before {
		t.Error("weight not restored")
	}
}

func TestApplyPanicsOnInvalidFault(t *testing.T) {
	inj := newTestInjector(t)
	defer func() {
		if recover() == nil {
			t.Error("invalid fault did not panic")
		}
	}()
	inj.Apply(faultmodel.Fault{Layer: 99})
}

// TestExponentMSBFaultIsCritical: forcing bit 30 of a weight to 1 blows
// the weight up to ~2^127; on a trained-scale network the prediction
// must change for at least one image.
func TestExponentMSBFaultIsCritical(t *testing.T) {
	inj := newTestInjector(t)
	critical := 0
	for p := 0; p < 20; p++ {
		f := faultmodel.Fault{Layer: 0, Param: p, Bit: 30, Model: faultmodel.StuckAt1}
		if inj.IsCritical(f) {
			critical++
		}
	}
	if critical < 15 {
		t.Errorf("only %d/20 exponent-MSB sa1 faults critical, want nearly all", critical)
	}
}

// TestMantissaLSBFaultIsBenign: the least significant mantissa bit
// perturbs a weight by ~1e-8 of its value, which cannot change a top-1
// outcome on a non-degenerate network.
func TestMantissaLSBFaultIsBenign(t *testing.T) {
	inj := newTestInjector(t)
	critical := 0
	for p := 0; p < 20; p++ {
		for _, m := range []faultmodel.Model{faultmodel.StuckAt0, faultmodel.StuckAt1} {
			f := faultmodel.Fault{Layer: 1, Param: p, Bit: 0, Model: m}
			if inj.IsCritical(f) {
				critical++
			}
		}
	}
	if critical != 0 {
		t.Errorf("%d mantissa-LSB faults critical, want 0", critical)
	}
}

// TestStuckAtMatchingBitIsNeutral: a stuck-at equal to the current bit
// value changes nothing, so it must never be critical.
func TestStuckAtMatchingBitIsNeutral(t *testing.T) {
	inj := newTestInjector(t)
	w := inj.Net.WeightLayers()[0].WeightData()
	for p := 0; p < 10; p++ {
		for bit := 0; bit < 32; bit++ {
			m := faultmodel.StuckAt0
			if fp.Bit32(w[p], bit) {
				m = faultmodel.StuckAt1
			}
			f := faultmodel.Fault{Layer: 0, Param: p, Bit: bit, Model: m}
			if inj.IsCritical(f) {
				t.Fatalf("no-op fault %v classified critical", f)
			}
		}
	}
}

// TestWeightsUnchangedAfterCampaign: the golden state must survive any
// sequence of experiments bit-exactly.
func TestWeightsUnchangedAfterCampaign(t *testing.T) {
	inj := newTestInjector(t)
	before := inj.Net.AllWeights()
	space := inj.Space()
	for g := int64(0); g < 200; g++ {
		inj.IsCritical(space.GlobalFault(g * 97 % space.Total()))
	}
	after := inj.Net.AllWeights()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("weight %d changed after campaign", i)
		}
	}
}

// TestPrefixCacheMatchesFullForward: classification via the cached
// suffix execution must agree with a from-scratch forward pass.
func TestPrefixCacheMatchesFullForward(t *testing.T) {
	inj := newTestInjector(t)
	ds := dataset.Synthetic(dataset.Config{N: 8, Seed: 1, Size: 16})
	space := inj.Space()
	for g := int64(0); g < 100; g++ {
		f := space.GlobalFault(g * 1093 % space.Total())

		// Reference: apply fault, full forward on every image.
		restore := inj.Apply(f)
		refCritical := false
		for i, s := range ds.Samples {
			if inj.Net.Predict(s.Image) != inj.golden[i] {
				refCritical = true
				break
			}
		}
		restore()

		if got := inj.IsCritical(f); got != refCritical {
			t.Fatalf("fault %v: cached classification %v, reference %v", f, got, refCritical)
		}
	}
}

func TestCriteria(t *testing.T) {
	inj := newTestInjector(t)
	f := faultmodel.Fault{Layer: 0, Param: 0, Bit: 30, Model: faultmodel.StuckAt1}

	inj.Criterion = SDC
	sdc := inj.IsCritical(f)

	inj.Criterion = MismatchRate
	inj.Threshold = 0 // any mismatch
	rate0 := inj.IsCritical(f)
	if sdc != rate0 {
		t.Errorf("SDC %v disagrees with MismatchRate(0) %v", sdc, rate0)
	}

	inj.Threshold = 1 // impossible: rate can never exceed 1
	if inj.IsCritical(f) {
		t.Error("threshold 1 should never classify critical")
	}

	inj.Criterion = AccuracyDrop
	_ = inj.IsCritical(f) // must not panic; direction depends on golden accuracy
}

func TestMismatchCount(t *testing.T) {
	inj := newTestInjector(t)
	big := faultmodel.Fault{Layer: 0, Param: 0, Bit: 30, Model: faultmodel.StuckAt1}
	tiny := faultmodel.Fault{Layer: 0, Param: 0, Bit: 0, Model: faultmodel.StuckAt1}
	if inj.MismatchCount(big) <= 0 {
		t.Error("exponent-MSB fault should flip at least one prediction")
	}
	if got := inj.MismatchCount(tiny); got != 0 {
		t.Errorf("mantissa-LSB fault flipped %d predictions", got)
	}
}

func TestInjectionCounter(t *testing.T) {
	inj := newTestInjector(t)
	f := faultmodel.Fault{Layer: 0, Param: 0, Bit: 10, Model: faultmodel.StuckAt1}
	inj.IsCritical(f)
	inj.IsCritical(f)
	inj.MismatchCount(f)
	if got := inj.EvalStats().Experiments(); got != 3 {
		t.Errorf("experiments = %d, want 3", got)
	}
}

func TestCriterionString(t *testing.T) {
	if SDC.String() != "sdc" || AccuracyDrop.String() != "accuracy-drop" ||
		MismatchRate.String() != "mismatch-rate" || Criterion(9).String() != "unknown" {
		t.Error("criterion names wrong")
	}
}

func TestNewPanicsOnEmptyDataset(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty dataset did not panic")
		}
	}()
	New(models.SmallCNN(1), &dataset.Dataset{Classes: 10})
}

func BenchmarkIsCriticalPrefixCached(b *testing.B) {
	net := models.SmallCNN(1)
	ds := dataset.Synthetic(dataset.Config{N: 8, Seed: 1, Size: 16})
	inj := New(net, ds)
	space := inj.Space()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inj.IsCritical(space.GlobalFault(int64(i*313) % space.Total()))
	}
}
