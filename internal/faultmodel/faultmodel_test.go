package faultmodel

import (
	"math/rand"
	"testing"
	"testing/quick"
)

var resnet20Params = []int{
	432,
	2304, 2304, 2304, 2304, 2304, 2304,
	4608,
	9216, 9216, 9216, 9216, 9216,
	18432,
	36864, 36864, 36864, 36864, 36864,
	640,
}

func TestStuckAtPopulationMatchesTableI(t *testing.T) {
	s := NewStuckAt(resnet20Params, 32)
	// Exhaustive column of Table I: params × 32 × 2 per layer.
	wantLayer := []int64{27648, 147456, 147456, 147456, 147456, 147456, 147456,
		294912, 589824, 589824, 589824, 589824, 589824, 1179648,
		2359296, 2359296, 2359296, 2359296, 2359296, 40960}
	for l, want := range wantLayer {
		if got := s.LayerTotal(l); got != want {
			t.Errorf("layer %d population = %d, want %d", l, got, want)
		}
	}
	// The paper's total is 17,174,144 with its layer-11 typo (9,226
	// params); the standard architecture gives 17,173,504.
	if got := s.Total(); got != 17173504 {
		t.Errorf("total population = %d, want 17,173,504", got)
	}
}

func TestBitLayerTotal(t *testing.T) {
	s := NewStuckAt(resnet20Params, 32)
	if got := s.BitLayerTotal(0); got != 864 { // 432 × 2
		t.Errorf("N_(i,0) = %d, want 864", got)
	}
	flip := NewBitFlip(resnet20Params, 32)
	if got := flip.BitLayerTotal(0); got != 432 {
		t.Errorf("transient N_(i,0) = %d, want 432", got)
	}
}

func TestBitLayerFaultDecoding(t *testing.T) {
	s := NewStuckAt([]int{10}, 32)
	f := s.BitLayerFault(0, 5, 0)
	if f != (Fault{Layer: 0, Param: 0, Bit: 5, Model: StuckAt0}) {
		t.Errorf("first fault = %v", f)
	}
	f = s.BitLayerFault(0, 5, 1)
	if f.Model != StuckAt1 || f.Param != 0 {
		t.Errorf("second fault = %v", f)
	}
	f = s.BitLayerFault(0, 5, 19)
	if f.Param != 9 || f.Model != StuckAt1 {
		t.Errorf("last fault = %v", f)
	}
}

func TestLayerFaultCoversAllBits(t *testing.T) {
	s := NewStuckAt([]int{3}, 4) // tiny: 3 params × 4 bits × 2 = 24 faults
	seen := make(map[Fault]bool)
	for j := int64(0); j < s.LayerTotal(0); j++ {
		f := s.LayerFault(0, j)
		if err := s.Validate(f); err != nil {
			t.Fatalf("invalid fault at %d: %v", j, err)
		}
		if seen[f] {
			t.Fatalf("duplicate fault %v at index %d", f, j)
		}
		seen[f] = true
	}
	if len(seen) != 24 {
		t.Errorf("enumerated %d distinct faults, want 24", len(seen))
	}
}

func TestGlobalFaultRoundTrip(t *testing.T) {
	s := NewStuckAt([]int{5, 7, 3}, 8)
	total := s.Total()
	if total != (5+7+3)*8*2 {
		t.Fatalf("total = %d", total)
	}
	for g := int64(0); g < total; g++ {
		f := s.GlobalFault(g)
		if back := s.GlobalIndex(f); back != g {
			t.Fatalf("round trip %d -> %v -> %d", g, f, back)
		}
	}
}

func TestGlobalFaultRoundTripProperty(t *testing.T) {
	s := NewStuckAt(resnet20Params, 32)
	total := s.Total()
	f := func(raw uint64) bool {
		g := int64(raw % uint64(total))
		fault := s.GlobalFault(g)
		return s.Validate(fault) == nil && s.GlobalIndex(fault) == g
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPanicsOnOutOfRange(t *testing.T) {
	s := NewStuckAt([]int{4}, 8)
	cases := []func(){
		func() { s.BitLayerFault(0, 8, 0) },
		func() { s.BitLayerFault(0, 0, 8) },
		func() { s.LayerFault(0, 64) },
		func() { s.GlobalFault(64) },
		func() { s.GlobalFault(-1) },
		func() { s.GlobalIndex(Fault{Model: BitFlip}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestValidate(t *testing.T) {
	s := NewStuckAt([]int{4, 6}, 16)
	good := Fault{Layer: 1, Param: 5, Bit: 15, Model: StuckAt1}
	if err := s.Validate(good); err != nil {
		t.Errorf("valid fault rejected: %v", err)
	}
	bad := []Fault{
		{Layer: 2, Param: 0, Bit: 0, Model: StuckAt0},
		{Layer: 0, Param: 4, Bit: 0, Model: StuckAt0},
		{Layer: 0, Param: 0, Bit: 16, Model: StuckAt0},
		{Layer: 0, Param: 0, Bit: 0, Model: BitFlip},
		{Layer: -1, Param: 0, Bit: 0, Model: StuckAt0},
	}
	for i, f := range bad {
		if err := s.Validate(f); err == nil {
			t.Errorf("invalid fault %d accepted: %v", i, f)
		}
	}
}

func TestFaultString(t *testing.T) {
	f := Fault{Layer: 3, Param: 142, Bit: 30, Model: StuckAt1}
	if got := f.String(); got != "L3.w142.b30.sa1" {
		t.Errorf("String = %q", got)
	}
	if StuckAt0.String() != "sa0" || BitFlip.String() != "flip" || Model(9).String() != "unknown" {
		t.Error("model names wrong")
	}
}

func TestMobileNetV2PopulationSize(t *testing.T) {
	// 54 layers totalling 2,203,584 params → 141,029,376 faults.
	params := make([]int, 54)
	// Only the total matters for this check; spread arbitrarily.
	remain := 2203584
	for i := range params {
		params[i] = remain / (54 - i)
		remain -= params[i]
	}
	s := NewStuckAt(params, 32)
	if got := s.Total(); got != 141029376 {
		t.Errorf("population = %d, want 141,029,376", got)
	}
}

// bitLayerFaultByDivision is the reference decode BitLayerFault must
// match bit for bit: the plain 64-bit division and remainder, valid for
// any variant count.
func bitLayerFaultByDivision(s Space, l, bit int, j int64) Fault {
	v := int64(len(s.Variants))
	return Fault{Layer: l, Param: int(j / v), Bit: bit, Model: s.Variants[j%v]}
}

// layerFaultByDivision is LayerFault over the reference bit-layer decode.
func layerFaultByDivision(s Space, l int, j int64) Fault {
	perBit := s.BitLayerTotal(l)
	return bitLayerFaultByDivision(s, l, int(j/perBit), j%perBit)
}

// TestDecodeMatchesDivision pins the shift-and-mask fast path of
// BitLayerFault (and LayerFault, which calls it) to the division
// decode, for both universes the package defines and for a
// three-variant space that takes the division fallback: at index 0,
// the last index and random indices of every layer.
func TestDecodeMatchesDivision(t *testing.T) {
	spaces := map[string]Space{
		"stuck-at": NewStuckAt(resnet20Params, 32),
		"bit-flip": NewBitFlip(resnet20Params, 32),
		"three":    {LayerParams: resnet20Params, Bits: 32, Variants: []Model{StuckAt0, StuckAt1, BitFlip}},
	}
	rng := rand.New(rand.NewSource(14))
	for name, s := range spaces {
		for l := 0; l < s.NumLayers(); l++ {
			perBit, perLayer := s.BitLayerTotal(l), s.LayerTotal(l)
			idx := []int64{0, perBit - 1}
			for k := 0; k < 200; k++ {
				idx = append(idx, rng.Int63n(perBit))
			}
			for _, j := range idx {
				bit := rng.Intn(s.Bits)
				if got, want := s.BitLayerFault(l, bit, j), bitLayerFaultByDivision(s, l, bit, j); got != want {
					t.Fatalf("%s: BitLayerFault(%d, %d, %d) = %v, want %v", name, l, bit, j, got, want)
				}
			}
			idx = []int64{0, perLayer - 1}
			for k := 0; k < 200; k++ {
				idx = append(idx, rng.Int63n(perLayer))
			}
			for _, j := range idx {
				if got, want := s.LayerFault(l, j), layerFaultByDivision(s, l, j); got != want {
					t.Fatalf("%s: LayerFault(%d, %d) = %v, want %v", name, l, j, got, want)
				}
			}
		}
	}
}
