package stats

import "math"

// Mean returns the arithmetic mean of the values, or 0 for empty input.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// Variance returns the population variance (dividing by n), or 0 for
// fewer than one element.
func Variance(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	m := Mean(values)
	var ss float64
	for _, v := range values {
		d := v - m
		ss += float64(d * d)
	}
	return ss / float64(len(values))
}

// StdDev returns the population standard deviation.
func StdDev(values []float64) float64 { return math.Sqrt(Variance(values)) }

// MeanFloat32 returns the arithmetic mean of float32 values as float64.
func MeanFloat32(values []float32) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += float64(v)
	}
	return sum / float64(len(values))
}

// StdDevFloat32 returns the population standard deviation of float32
// values as float64.
func StdDevFloat32(values []float32) float64 {
	if len(values) == 0 {
		return 0
	}
	m := MeanFloat32(values)
	var ss float64
	for _, v := range values {
		d := float64(v) - m
		ss += float64(d * d)
	}
	return math.Sqrt(ss / float64(len(values)))
}

// BinomialVariance returns Eq. 2 of the paper: σ² = n·p·(1−p), the
// variance of a binomial distribution with parameters n and p.
func BinomialVariance(n int64, p float64) float64 {
	return float64(n) * p * (1 - p)
}

// BernoulliVariance returns p·(1−p), the per-trial variance plotted in
// Fig. 1 (left) of the paper. It is maximal at p = 0.5.
func BernoulliVariance(p float64) float64 { return p * (1 - p) }

// Histogram counts the values into nbins equal-width bins over
// [min, max]. Values outside the range are clamped into the first/last
// bin. It panics if nbins <= 0 or max <= min.
func Histogram(values []float64, min, max float64, nbins int) []int {
	if nbins <= 0 {
		panic("stats: Histogram needs a positive bin count")
	}
	if max <= min {
		panic("stats: Histogram needs max > min")
	}
	counts := make([]int, nbins)
	width := (max - min) / float64(nbins)
	for _, v := range values {
		i := int((v - min) / width)
		if i < 0 {
			i = 0
		}
		if i >= nbins {
			i = nbins - 1
		}
		counts[i]++
	}
	return counts
}
