// Package stats implements the statistical-inference substrate of the
// statistical fault injection (SFI) methodology: normal quantiles, the
// finite-population-corrected sample-size formula (Eq. 1 of the paper),
// achieved-error-margin inversion, confidence intervals for proportions,
// min-max normalization with outlier exclusion (Eq. 5), descriptive
// statistics, and uniform sampling without replacement.
//
// # Paper-compatible conventions
//
// Reverse-engineering Table I of the paper shows the authors use the
// conventional rounded two-sided normal quantiles (t = 2.58 at 99%,
// 1.96 at 95%) and round the resulting sample size to the nearest
// integer. With these conventions every network-wise, layer-wise, and
// data-unaware entry of Tables I and II reproduces exactly. The package
// exposes both the rounded convention (default, ZRounded) and the exact
// quantile (ZExact) so the difference can be quantified (see the
// rounded-vs-exact ablation bench).
package stats

import (
	"fmt"
	"math"
)

// NormalCDF returns Φ(x), the standard normal cumulative distribution
// function.
func NormalCDF(x float64) float64 {
	return float64(0.5 * math.Erfc(-x/math.Sqrt2))
}

// NormalQuantile returns Φ⁻¹(p) for p ∈ (0, 1) using Acklam's rational
// approximation refined by one Halley step, accurate to ~1e-15.
// It panics if p is outside (0, 1).
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: NormalQuantile requires p in (0,1), got %v", p))
	}

	// Coefficients for Acklam's algorithm.
	a := [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01,
	}
	c := [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00,
	}

	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = horner(q, c[:]...) / horner(q, d[0], d[1], d[2], d[3], 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = horner(r, a[:]...) * q / horner(r, b[0], b[1], b[2], b[3], b[4], 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -horner(q, c[:]...) / horner(q, d[0], d[1], d[2], d[3], 1)
	}

	// One Halley refinement step.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + float64(x*u/2))
	return x
}

// ZExact returns the exact two-sided standard normal quantile for the
// given confidence level, e.g. ZExact(0.99) ≈ 2.5758.
// It panics if confidence is outside (0, 1).
func ZExact(confidence float64) float64 {
	if confidence <= 0 || confidence >= 1 {
		panic(fmt.Sprintf("stats: confidence must be in (0,1), got %v", confidence))
	}
	return NormalQuantile(0.5 + float64(confidence/2))
}

// ZRounded returns the conventional rounded two-sided normal quantile
// used throughout the reliability literature and, in particular, by the
// paper's Tables I and II: 2.58 at 99%, 1.96 at 95%, 1.64 at 90%,
// 3.29 at 99.9%. Confidence levels without a conventional rounding fall
// back to the exact quantile rounded to two decimals.
func ZRounded(confidence float64) float64 {
	switch {
	case almostEqual(confidence, 0.90):
		return 1.64
	case almostEqual(confidence, 0.95):
		return 1.96
	case almostEqual(confidence, 0.99):
		return 2.58
	case almostEqual(confidence, 0.999):
		return 3.29
	default:
		return math.Round(ZExact(confidence)*100) / 100
	}
}

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// horner evaluates the polynomial c[0]·x^(n−1) + … + c[n−1] in Horner
// form, rounding every product so that no platform fuses it into a
// multiply-add: the bits are those of the plain expression on amd64.
func horner(x float64, c ...float64) float64 {
	v := c[0]
	for _, ci := range c[1:] {
		v = float64(v*x) + ci
	}
	return v
}
