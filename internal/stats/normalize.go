package stats

import (
	"math"
	"sort"
)

// MinMaxNormalize linearly rescales values into [a, b] (Eq. 5 of the
// paper without outlier handling):
//
//	out = a + (v − min)·(b − a)/(max − min).
//
// When all values are equal the midpoint (a+b)/2 is returned for every
// element. The input is not modified.
func MinMaxNormalize(values []float64, a, b float64) []float64 {
	out := make([]float64, len(values))
	if len(values) == 0 {
		return out
	}
	lo, hi := values[0], values[0]
	for _, v := range values[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	for i, v := range values {
		if hi == lo {
			out[i] = (a + b) / 2
			continue
		}
		out[i] = a + float64(unitPos(v, lo, hi)*(b-a))
	}
	return out
}

// unitPos returns (v−lo)/(hi−lo) computed without intermediate overflow
// even when hi−lo exceeds MaxFloat64, clamped into [0, 1].
func unitPos(v, lo, hi float64) float64 {
	var t float64
	if d := hi - lo; !math.IsInf(d, 0) {
		t = (v - lo) / d
	} else {
		t = (float64(v/2) - float64(lo/2)) / (float64(hi/2) - float64(lo/2))
	}
	if t < 0 {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}

// OutlierBounds returns the Tukey fences [Q1 − k·IQR, Q3 + k·IQR] of the
// values with the conventional k = 1.5. Values outside the fences are
// considered outliers. Empty input returns (−Inf, +Inf).
func OutlierBounds(values []float64) (lo, hi float64) {
	if len(values) == 0 {
		return math.Inf(-1), math.Inf(1)
	}
	q1 := Quantile(values, 0.25)
	q3 := Quantile(values, 0.75)
	iqr := q3 - q1
	return q1 - float64(1.5*iqr), q3 + float64(1.5*iqr)
}

// MinMaxNormalizeExcludingOutliers implements the full Eq. 5 convention
// of the paper: the min and max of the rescaling are computed over the
// non-outlier values only (Tukey fences), and outliers above the upper
// fence are assigned the maximum criticality b while outliers below the
// lower fence are assigned a. The paper motivates this by noting that a
// very large average bit-flip distance can directly be given the highest
// criticality p = 0.5. Results are clamped into [a, b].
func MinMaxNormalizeExcludingOutliers(values []float64, a, b float64) []float64 {
	out := make([]float64, len(values))
	if len(values) == 0 {
		return out
	}
	loFence, hiFence := OutlierBounds(values)

	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		if v < loFence || v > hiFence {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo > hi { // everything is an outlier; fall back to plain min-max
		return MinMaxNormalize(values, a, b)
	}
	for i, v := range values {
		switch {
		case v > hiFence:
			out[i] = b
		case v < loFence:
			out[i] = a
		case hi == lo:
			out[i] = (a + b) / 2
		default:
			out[i] = a + float64(unitPos(v, lo, hi)*(b-a))
		}
	}
	return out
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of the values using
// linear interpolation between order statistics (type-7, the default of
// R and NumPy). It panics on empty input or q outside [0, 1].
func Quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic("stats: quantile level outside [0,1]")
	}
	s := make([]float64, len(values))
	copy(s, values)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := float64(q * float64(len(s)-1))
	i := int(math.Floor(pos))
	frac := pos - float64(i)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return float64(s[i]*(1-frac)) + float64(s[i+1]*frac)
}
