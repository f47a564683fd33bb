package inject

import (
	"math"
	"testing"

	"cnnsfi/internal/faultmodel"
	"cnnsfi/internal/fp"
)

// setWeight overwrites one weight with an exact bit pattern so the
// masked predicate can be probed on edge-case encodings.
func setWeight(inj *Injector, layer, param int, bits uint32) {
	inj.layers[layer].WeightData()[param] = math.Float32frombits(bits)
}

// TestMaskedPredicateEdgeCases drives Injector.Masked over the IEEE-754
// encodings where an approximate predicate would slip: exact zero,
// negative zero, a denormal with a single mantissa bit, NaN with a
// payload, infinity, and an ordinary value. The ground truth for every
// row is the definition itself — a stuck-at is masked iff the stored
// bit already equals the stuck value — computed independently from the
// raw bit pattern.
func TestMaskedPredicateEdgeCases(t *testing.T) {
	weights := []struct {
		name string
		bits uint32
	}{
		{"plus_zero", 0x00000000},    // all bits clear
		{"minus_zero", 0x80000000},   // only the sign bit set
		{"one", 0x3F800000},          // exponent bits set, mantissa clear
		{"denormal_lsb", 0x00000001}, // smallest positive denormal
		{"nan_payload", 0x7FC00001},  // quiet NaN with payload bit
		{"neg_inf", 0xFF800000},      // sign + full exponent
		{"ordinary", 0xBE99999A},     // -0.3, mixed bit pattern
		{"all_ones", 0xFFFFFFFF},     // NaN with every bit set
	}

	inj := newTestInjector(t)
	for _, w := range weights {
		t.Run(w.name, func(t *testing.T) {
			setWeight(inj, 0, 0, w.bits)
			for bit := 0; bit < fp.Bits32; bit++ {
				stored := w.bits>>uint(bit)&1 == 1
				cases := []struct {
					model  faultmodel.Model
					masked bool
				}{
					{faultmodel.StuckAt0, !stored}, // masked iff bit already 0
					{faultmodel.StuckAt1, stored},  // masked iff bit already 1
					{faultmodel.BitFlip, false},    // always changes the word
				}
				for _, c := range cases {
					f := faultmodel.Fault{Layer: 0, Param: 0, Bit: bit, Model: c.model}
					if got := inj.Masked(f); got != c.masked {
						t.Errorf("bits 0x%08x %v bit %d: Masked = %v, want %v",
							w.bits, c.model, bit, got, c.masked)
					}
					// Cross-check against Apply: masked must mean exactly
					// "applying the fault leaves the weight bit-identical".
					restore := inj.Apply(f)
					after := math.Float32bits(inj.layers[0].WeightData()[0])
					restore()
					if identical := after == w.bits; identical != c.masked {
						t.Errorf("bits 0x%08x %v bit %d: Apply changed word to 0x%08x but Masked = %v",
							w.bits, c.model, bit, after, c.masked)
					}
				}
			}
		})
	}
}

// TestMaskedShortCircuitVerdictAndCounters: a masked fault must be
// classified Non-critical by IsCritical and 0 by MismatchCount, while
// still counting as an injection (the campaign accounting is about
// experiments, not inferences) and incrementing only the skipped
// counter.
func TestMaskedShortCircuitVerdictAndCounters(t *testing.T) {
	inj := newTestInjector(t)
	setWeight(inj, 0, 0, 0x3F800000) // 1.0: mantissa clear, exponent set

	base := inj.EvalStats()

	// 1.0's exponent is 0x7F: bits 23-29 set, bit 30 and mantissa clear.
	maskedSA0 := faultmodel.Fault{Layer: 0, Param: 0, Bit: 0, Model: faultmodel.StuckAt0}
	maskedSA1 := faultmodel.Fault{Layer: 0, Param: 0, Bit: 26, Model: faultmodel.StuckAt1}
	for _, f := range []faultmodel.Fault{maskedSA0, maskedSA1} {
		if inj.IsCritical(f) {
			t.Errorf("masked fault %v classified Critical", f)
		}
		if got := inj.MismatchCount(f); got != 0 {
			t.Errorf("masked fault %v: MismatchCount = %d, want 0", f, got)
		}
	}

	s := inj.EvalStats()
	if got, want := s.Skipped-base.Skipped, int64(4); got != want {
		t.Errorf("Skipped advanced by %d, want %d", got, want)
	}
	if s.Evaluated != base.Evaluated {
		t.Errorf("Evaluated advanced by %d on masked-only faults", s.Evaluated-base.Evaluated)
	}
	if got, want := s.Experiments()-base.Experiments(), int64(4); got != want {
		t.Errorf("Experiments advanced by %d, want %d (masked experiments still count)", got, want)
	}
}

// TestUnmaskedStuckAtEvaluates: the complementary stuck-at on the same
// bit must take the full evaluation path and restore the weight.
func TestUnmaskedStuckAtEvaluates(t *testing.T) {
	inj := newTestInjector(t)
	setWeight(inj, 0, 0, 0x3F800000) // 1.0

	base := inj.EvalStats()
	// Mantissa LSB of 1.0 is 0, so StuckAt1 is unmasked (and benign).
	f := faultmodel.Fault{Layer: 0, Param: 0, Bit: 0, Model: faultmodel.StuckAt1}
	if inj.Masked(f) {
		t.Fatal("StuckAt1 on a clear bit reported masked")
	}
	inj.IsCritical(f)
	s := inj.EvalStats()
	if got := s.Evaluated - base.Evaluated; got != 1 {
		t.Errorf("Evaluated advanced by %d, want 1", got)
	}
	if got := math.Float32bits(inj.layers[0].WeightData()[0]); got != 0x3F800000 {
		t.Errorf("weight not restored: 0x%08x", got)
	}
}

// TestEvalStatsExperimentsAccounting: Skipped + Evaluated must equal
// the number of single-fault experiments, whatever the mix.
func TestEvalStatsExperimentsAccounting(t *testing.T) {
	inj := newTestInjector(t)
	const n = 200
	for j := int64(0); j < n; j++ {
		inj.IsCritical(inj.Space().LayerFault(0, j))
	}
	s := inj.EvalStats()
	if s.Experiments() != n {
		t.Errorf("Experiments() = %d (skipped %d + evaluated %d), want %d",
			s.Experiments(), s.Skipped, s.Evaluated, n)
	}
	if s.Skipped == 0 || s.Evaluated == 0 {
		t.Errorf("expected a mix of skipped (%d) and evaluated (%d) over a stuck-at sweep",
			s.Skipped, s.Evaluated)
	}
	if s.ArenaBytes <= 0 {
		t.Errorf("ArenaBytes = %d after %d evaluations; arena growth not published", s.ArenaBytes, n)
	}
}
