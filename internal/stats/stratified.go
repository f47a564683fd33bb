package stats

import "math"

// Stratified is an estimate assembled from independent per-stratum
// samples (the situation of the bit-granular SFI approaches: one sample
// per (bit, layer) subpopulation, combined into a per-layer or whole-
// network figure).
//
// The point estimate weights each stratum's observed proportion by its
// population share. The margin is the half-width of the normal-
// approximation interval for the *stratified* estimator,
//
//	Var = Σ_h (N_h/N)² · p̂_h(1−p̂_h)/n_h · (N_h−n_h)/(N_h−1),
//
// which can differ by orders of magnitude from the simple-random-sample
// formula when sampling fractions are unequal across strata — treating a
// stratified sample as if it were uniform is exactly the kind of
// statistical mistake the paper warns about.
type Stratified struct {
	// Parts are the per-stratum estimates.
	Parts []ProportionEstimate
}

// SampleSize returns the total number of injections across strata.
func (s Stratified) SampleSize() int64 {
	var n int64
	for _, p := range s.Parts {
		n += p.SampleSize
	}
	return n
}

// PopulationSize returns the combined population size.
func (s Stratified) PopulationSize() int64 {
	var n int64
	for _, p := range s.Parts {
		n += p.PopulationSize
	}
	return n
}

// PHat returns the population-weighted point estimate.
func (s Stratified) PHat() float64 {
	N := s.PopulationSize()
	if N == 0 {
		return 0
	}
	var weighted float64
	for _, p := range s.Parts {
		weighted += float64(p.PHat() * float64(p.PopulationSize))
	}
	return weighted / float64(N)
}

// Margin returns the half-width of the stratified confidence interval at
// the configuration's confidence level, evaluated at the observed
// per-stratum proportions with finite population corrections. A stratum
// with no sample contributes its worst-case Bernoulli variance (0.25),
// since nothing is known about it; the result is clamped to [0, 1].
func (s Stratified) Margin(c SampleSizeConfig) float64 {
	N := float64(s.PopulationSize())
	if N == 0 {
		return 1
	}
	var variance float64
	for _, p := range s.Parts {
		w := float64(p.PopulationSize) / N
		switch {
		case p.PopulationSize == 0:
			// Empty stratum contributes nothing.
		case p.SampleSize <= 0:
			// Unsampled stratum: worst-case variance of its true
			// proportion.
			variance += float64(w * w * 0.25)
		case p.SampleSize >= p.PopulationSize:
			// Exhaustive stratum: no estimation error.
		default:
			fpc := (float64(p.PopulationSize) - float64(p.SampleSize)) /
				(float64(p.PopulationSize) - 1)
			variance += float64(w * w * strataVariance(p) / float64(p.SampleSize) * fpc)
		}
	}
	m := c.Z() * math.Sqrt(variance)
	if m > 1 {
		m = 1
	}
	return m
}

// Covers reports whether PHat ± Margin contains the value.
func (s Stratified) Covers(c SampleSizeConfig, truth float64) bool {
	m := s.Margin(c)
	ph := s.PHat()
	return truth >= ph-m && truth <= ph+m
}

// strataVariance returns the Bernoulli variance attributed to one
// stratum's true proportion. For an interior observation (0 < x < n) it
// is the plug-in p̂(1−p̂). A degenerate sample (x = 0 or x = n) would
// plug in zero — claiming certainty from, say, a single trial — so it is
// replaced by the Anscombe-adjusted plug-in p̃ = (x+½)/(n+1), capped by
// the stratum's planned Bernoulli variance: the planner asserted the
// stratum's p when sizing the sample (tiny for a data-aware mantissa
// stratum, 0.5 for an agnostic one), and that assertion is the only
// other information available.
func strataVariance(p ProportionEstimate) float64 {
	ph := p.PHat()
	if p.Successes > 0 && p.Successes < p.SampleSize {
		return ph * (1 - ph)
	}
	adj := (float64(p.Successes) + 0.5) / (float64(p.SampleSize) + 1)
	anscombe := adj * (1 - adj)
	planned := 0.25
	if p.PlannedP > 0 && p.PlannedP < 1 {
		planned = p.PlannedP * (1 - p.PlannedP)
	}
	if anscombe < planned {
		return anscombe
	}
	return planned
}
