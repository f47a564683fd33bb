package oracle

import (
	"testing"

	"cnnsfi/internal/faultmodel"
	"cnnsfi/internal/fp"
	"cnnsfi/internal/models"
)

func newSmallOracle(t *testing.T) *Oracle {
	t.Helper()
	return New(models.SmallCNN(1), DefaultConfig(7))
}

func TestVerdictsAreDeterministic(t *testing.T) {
	a := newSmallOracle(t)
	b := New(models.SmallCNN(1), DefaultConfig(7))
	space := a.Space()
	for g := int64(0); g < 2000; g++ {
		f := space.GlobalFault(g * 53 % space.Total())
		if a.IsCritical(f) != b.IsCritical(f) {
			t.Fatalf("verdict for %v differs between identical oracles", f)
		}
		// And stable across repeated queries.
		if a.IsCritical(f) != a.IsCritical(f) {
			t.Fatalf("verdict for %v not stable", f)
		}
	}
}

func TestSeedChangesLabelling(t *testing.T) {
	a := New(models.SmallCNN(1), DefaultConfig(7))
	b := New(models.SmallCNN(1), DefaultConfig(8))
	space := a.Space()
	diff := 0
	stride := space.Total() / 5000
	for g := int64(0); g < 5000; g++ {
		f := space.GlobalFault(g * stride % space.Total())
		if a.IsCritical(f) != b.IsCritical(f) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical labellings")
	}
}

func TestNoOpFaultsNeverCritical(t *testing.T) {
	o := newSmallOracle(t)
	w := o.weights[0]
	for p := 0; p < len(w) && p < 50; p++ {
		for bit := 0; bit < 32; bit++ {
			m := faultmodel.StuckAt0
			if fp.Bit32(w[p], bit) {
				m = faultmodel.StuckAt1
			}
			f := faultmodel.Fault{Layer: 0, Param: p, Bit: bit, Model: m}
			if o.CriticalProbability(f) != 0 {
				t.Fatalf("no-op fault %v has p > 0", f)
			}
			if o.IsCritical(f) {
				t.Fatalf("no-op fault %v critical", f)
			}
		}
	}
}

// TestBitCriticalityOrdering: exponent-MSB sa1 faults must be almost
// always critical, mantissa-LSB faults never — the structure every real
// FI study observes and the paper's Fig. 4 encodes.
func TestBitCriticalityOrdering(t *testing.T) {
	o := newSmallOracle(t)
	space := o.Space()

	cHigh, _ := o.ExhaustiveBitLayerCount(0, 30)
	nHigh := space.BitLayerTotal(0)
	rateHigh := float64(cHigh) / float64(nHigh)
	// Half the subpopulation is sa0 (benign on a naturally-0 bit) so the
	// rate tops out near pmax/2 ≈ 0.48.
	if rateHigh < 0.3 {
		t.Errorf("bit-30 critical rate = %v, want > 0.3", rateHigh)
	}

	cLow, nLow := o.ExhaustiveBitLayerCount(0, 0)
	rateLow := float64(cLow) / float64(nLow)
	if rateLow > 0.001 {
		t.Errorf("bit-0 critical rate = %v, want ≈ 0", rateLow)
	}

	if rateHigh <= rateLow {
		t.Error("bit 30 must dominate bit 0")
	}
}

func TestExhaustiveLayerRatePlausible(t *testing.T) {
	o := newSmallOracle(t)
	for l := 0; l < o.Space().NumLayers(); l++ {
		rate := o.ExhaustiveLayerRate(l)
		if rate <= 0 || rate >= 0.5 {
			t.Errorf("layer %d critical rate = %v, want in (0, 0.5)", l, rate)
		}
	}
}

func TestExhaustiveNetworkRateMatchesLayerAggregation(t *testing.T) {
	o := newSmallOracle(t)
	space := o.Space()
	var weighted float64
	for l := 0; l < space.NumLayers(); l++ {
		weighted += o.ExhaustiveLayerRate(l) * float64(space.LayerTotal(l))
	}
	want := weighted / float64(space.Total())
	got := o.ExhaustiveNetworkRate()
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("network rate %v != aggregated %v", got, want)
	}
}

func TestCriticalProbabilityMonotoneInPerturbation(t *testing.T) {
	o := newSmallOracle(t)
	// For one weight, probability must not decrease with bit height
	// within the exponent field under sa1 (larger perturbations).
	w := o.weights[0][0]
	var prev float64 = -1
	for bit := 23; bit <= 30; bit++ {
		if fp.Bit32(w, bit) {
			continue // sa1 would be a no-op or downward; skip
		}
		f := faultmodel.Fault{Layer: 0, Param: 0, Bit: bit, Model: faultmodel.StuckAt1}
		p := o.CriticalProbability(f)
		if p < prev {
			t.Errorf("bit %d: p=%v decreased from %v", bit, p, prev)
		}
		prev = p
	}
}

func TestLayerAttenuationBoundsPMax(t *testing.T) {
	o := newSmallOracle(t)
	for l := range o.pmax {
		if o.pmax[l] > o.cfg.PMax || o.pmax[l] <= 0 {
			t.Errorf("layer %d pmax = %v", l, o.pmax[l])
		}
		if l > 0 && o.pmax[l] >= o.pmax[l-1] {
			t.Errorf("pmax not attenuating at layer %d", l)
		}
	}
}

func TestHashUnitUniform(t *testing.T) {
	// Rough uniformity check over 20k faults.
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		f := faultmodel.Fault{Layer: i % 4, Param: i, Bit: i % 32, Model: faultmodel.Model(i % 2)}
		u := hashUnit(1, f)
		if u < 0 || u >= 1 {
			t.Fatalf("hash out of range: %v", u)
		}
		sum += u
	}
	if mean := sum / n; mean < 0.48 || mean > 0.52 {
		t.Errorf("hash mean = %v, want ≈ 0.5", mean)
	}
}

func TestEvaluationCounter(t *testing.T) {
	o := newSmallOracle(t)
	f := faultmodel.Fault{Layer: 0, Param: 0, Bit: 30, Model: faultmodel.StuckAt1}
	o.IsCritical(f)
	o.IsCritical(f)
	if got := o.EvalStats().Experiments(); got != 2 {
		t.Errorf("evaluations = %d", got)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{Seed: 5}.withDefaults()
	if c.Alpha == 0 || c.Tau == 0 || c.PMax == 0 || c.LayerAttenuation == 0 {
		t.Error("defaults not applied")
	}
	d := DefaultConfig(5)
	if d != c {
		t.Errorf("DefaultConfig %+v != withDefaults %+v", d, c)
	}
}

func BenchmarkOracleVerdict(b *testing.B) {
	o := New(models.SmallCNN(1), DefaultConfig(7))
	space := o.Space()
	total := space.Total()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.IsCritical(space.GlobalFault(int64(i) % total))
	}
}
