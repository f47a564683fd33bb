package oracle

import (
	"math"
	"math/rand"
	"testing"

	"cnnsfi/internal/faultmodel"
	"cnnsfi/internal/fp"
	"cnnsfi/internal/models"
)

// The references below are the oracle's arithmetic in its plain form:
// FNV-1a one byte at a time over all eight bytes of every field,
// math.Pow for every Alpha. The production code takes exact shortcuts
// (prime-power folding of zero bytes, q·q for Alpha = 2); these tests
// pin that every verdict stays bit-identical.

func hashUnitByteLoop(seed int64, f faultmodel.Fault) float64 {
	h := uint64(fnvOffset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime
			v >>= 8
		}
	}
	mix(uint64(seed))
	mix(uint64(f.Layer))
	mix(uint64(f.Param))
	mix(uint64(f.Bit))
	mix(uint64(f.Model))
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / float64(1<<53)
}

func (o *Oracle) criticalProbabilityPow(f faultmodel.Fault) float64 {
	w := o.weights[f.Layer][f.Param]
	var faulty float32
	switch f.Model {
	case faultmodel.StuckAt0:
		faulty = fp.ClearBit32(w, f.Bit)
	case faultmodel.StuckAt1:
		faulty = fp.SetBit32(w, f.Bit)
	default:
		faulty = fp.FlipBit32(w, f.Bit)
	}
	if math.Float32bits(faulty) == math.Float32bits(w) {
		return 0
	}
	delta := math.Abs(float64(faulty) - float64(w))
	if math.IsNaN(delta) || math.IsInf(delta, 0) || delta > fp.MaxDistance {
		delta = fp.MaxDistance
	}
	if delta == 0 {
		return 0
	}
	rel := delta / o.scale[f.Layer]
	return o.pmax[f.Layer] / (1 + math.Pow(o.cfg.Tau/rel, o.cfg.Alpha))
}

func (o *Oracle) verdictReference(f faultmodel.Fault) bool {
	p := o.criticalProbabilityPow(f)
	if p <= 0 {
		return false
	}
	return hashUnitByteLoop(o.cfg.Seed, f) < p
}

// checkFault compares the oracle against the references on one fault.
func checkFault(t *testing.T, o *Oracle, f faultmodel.Fault) {
	t.Helper()
	got, want := o.CriticalProbability(f), o.criticalProbabilityPow(f)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%v: CriticalProbability = %v (%#x), reference %v (%#x)",
			f, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	v := o.verdictReference(f)
	if o.IsCriticalReference(f) != v || o.IsCritical(f) != v {
		t.Fatalf("%v: verdict differs from the reference %v", f, v)
	}
}

// TestArithmeticMatchesReferenceSmallCNN checks every fault of SmallCNN
// under the default surface, under a non-integer Alpha (the math.Pow
// path), and under a Tau so small that q·q is subnormal for many
// faults, where q·q and math.Pow may differ but 1 + q·q must not.
func TestArithmeticMatchesReferenceSmallCNN(t *testing.T) {
	net := models.SmallCNN(1)
	alt := DefaultConfig(11)
	alt.Alpha = 2.5
	tiny := DefaultConfig(-3)
	tiny.Tau = 1e-160
	for _, cfg := range []Config{DefaultConfig(7), alt, tiny} {
		o := New(net, cfg)
		space := o.Space()
		for g := int64(0); g < space.Total(); g++ {
			checkFault(t, o, space.GlobalFault(g))
		}
	}
}

// TestArithmeticMatchesReferenceResNet20 checks every fault of ResNet-20
// layers 0, 10 and 19, and 1M seeded random faults across the network.
func TestArithmeticMatchesReferenceResNet20(t *testing.T) {
	o := New(models.ResNet20(1), DefaultConfig(3))
	space := o.Space()
	for _, l := range []int{0, 10, 19} {
		for j := int64(0); j < space.LayerTotal(l); j++ {
			checkFault(t, o, space.LayerFault(l, j))
		}
	}
	n := 1_000_000
	if testing.Short() {
		n = 50_000
	}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < n; i++ {
		checkFault(t, o, space.GlobalFault(rng.Int63n(space.Total())))
	}
}

// TestHashUnitMatchesByteLoop covers the byte-count corner cases of the
// folded FNV-1a: zero and negative seeds (no significant bytes, all
// eight), bit 0 and the sa0 model (zero fields), and parameters of four
// bytes and more.
func TestHashUnitMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	seeds := []int64{0, 1, -1, 255, 256, math.MaxInt64, math.MinInt64, 1 << 56}
	for i := 0; i < 200; i++ {
		s := rng.Int63() >> uint(rng.Intn(63))
		if rng.Intn(2) == 0 {
			s = -s
		}
		seeds = append(seeds, s)
	}
	for _, seed := range seeds {
		for i := 0; i < 500; i++ {
			f := faultmodel.Fault{
				Layer: rng.Intn(60),
				Param: rng.Intn(1 << uint(rng.Intn(32))),
				Bit:   rng.Intn(32),
				Model: faultmodel.Model(rng.Intn(3)),
			}
			switch i % 5 {
			case 0:
				f.Bit = 0
			case 1:
				f.Param = 1<<24 + rng.Intn(1<<30)
			case 2:
				f.Layer, f.Param, f.Model = 0, 0, faultmodel.StuckAt0
			}
			if got, want := hashUnit(seed, f), hashUnitByteLoop(seed, f); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("hashUnit(%d, %v) = %v, byte loop %v", seed, f, got, want)
			}
		}
	}
}

// TestSquareMatchesPow pins the identity CriticalProbability relies on
// for Alpha = 2 over the whole float64 exponent range, not only the q
// a network's weights happen to produce: 1 + q·q equals 1 + Pow(q, 2)
// bit for bit — and q·q equals Pow(q, 2) itself wherever q·q is normal
// or overflows.
func TestSquareMatchesPow(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 1_000_000; i++ {
		q := math.Ldexp(0.5+rng.Float64()/2, rng.Intn(2100)-1050)
		sq, pow := q*q, math.Pow(q, 2)
		if math.Float64bits(1+sq) != math.Float64bits(1+pow) {
			t.Fatalf("q = %v: 1 + q·q = %v, 1 + Pow(q, 2) = %v", q, 1+sq, 1+pow)
		}
		if sq >= 0x1p-1022 && math.Float64bits(sq) != math.Float64bits(pow) {
			t.Fatalf("q = %v: q·q = %v, Pow(q, 2) = %v", q, sq, pow)
		}
	}
}
