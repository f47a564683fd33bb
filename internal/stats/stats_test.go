package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormalQuantileKnownValues(t *testing.T) {
	tests := []struct {
		p, want float64
	}{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.995, 2.5758293035489004},
		{0.95, 1.6448536269514722},
		{0.9995, 3.2905267314919255},
		{0.025, -1.959963984540054},
		{0.001, -3.090232306167813},
	}
	for _, tt := range tests {
		if got := NormalQuantile(tt.p); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("NormalQuantile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestNormalQuantileInvertsCDF(t *testing.T) {
	for p := 0.0005; p < 1; p += 0.0137 {
		x := NormalQuantile(p)
		if got := NormalCDF(x); math.Abs(got-p) > 1e-12 {
			t.Fatalf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

func TestNormalQuantilePanics(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NormalQuantile(%v) did not panic", p)
				}
			}()
			NormalQuantile(p)
		}()
	}
}

func TestZRoundedConventions(t *testing.T) {
	tests := []struct {
		conf, want float64
	}{
		{0.99, 2.58},
		{0.95, 1.96},
		{0.90, 1.64},
		{0.999, 3.29},
	}
	for _, tt := range tests {
		if got := ZRounded(tt.conf); got != tt.want {
			t.Errorf("ZRounded(%v) = %v, want %v", tt.conf, got, tt.want)
		}
	}
	// Unconventional level falls back to exact rounded to 2 decimals.
	if got := ZRounded(0.98); math.Abs(got-2.33) > 1e-9 {
		t.Errorf("ZRounded(0.98) = %v, want 2.33", got)
	}
}

func TestZExact99(t *testing.T) {
	if got := ZExact(0.99); math.Abs(got-2.5758293035489004) > 1e-9 {
		t.Errorf("ZExact(0.99) = %v", got)
	}
}

// TestSampleSizeReproducesTableI pins the package to the exact values of
// Table I of the paper (ResNet-20), which is the ground truth for the
// paper-compatible conventions (t = 2.58, round-to-nearest).
func TestSampleSizeReproducesTableI(t *testing.T) {
	c := DefaultConfig()
	tests := []struct {
		name string
		N    int64
		want int64
	}{
		{"network-wise ResNet-20", 17174144, 16625},
		{"network-wise MobileNetV2", 141029376, 16639},
		{"layer-wise L0", 27648, 10389},
		{"layer-wise L1", 147456, 14954},
		{"layer-wise L7", 294912, 15752},
		{"layer-wise L8", 589824, 16184},
		{"layer-wise L11", 590464, 16185},
		{"layer-wise L13", 1179648, 16410},
		{"layer-wise L14", 2359296, 16524},
		{"layer-wise L19", 40960, 11834},
		{"data-unaware per-bit L0", 864, 821},
		{"data-unaware per-bit L1", 4608, 3609},
		{"data-unaware per-bit L7", 9216, 5931},
		{"data-unaware per-bit L8", 18432, 8746},
		{"data-unaware per-bit L13", 36864, 11466},
		{"data-unaware per-bit L14", 73728, 13577},
		{"data-unaware per-bit L19", 1280, 1189},
	}
	for _, tt := range tests {
		if got := c.SampleSize(tt.N); got != tt.want {
			t.Errorf("%s: SampleSize(%d) = %d, want %d", tt.name, tt.N, got, tt.want)
		}
	}
}

func TestSampleSizeEdgeCases(t *testing.T) {
	c := DefaultConfig()
	if got := c.SampleSize(0); got != 0 {
		t.Errorf("SampleSize(0) = %d", got)
	}
	if got := c.SampleSize(1); got != 1 {
		t.Errorf("SampleSize(1) = %d, want 1", got)
	}
	// Tiny populations: n never exceeds N.
	for N := int64(1); N < 50; N++ {
		if got := c.SampleSize(N); got > N || got < 1 {
			t.Fatalf("SampleSize(%d) = %d out of [1,N]", N, got)
		}
	}
}

func TestSampleSizeCeilIsAtLeastNearest(t *testing.T) {
	near := DefaultConfig()
	ceil := DefaultConfig()
	ceil.Rounding = RoundCeil
	for _, N := range []int64{100, 864, 27648, 17174144} {
		if ceil.SampleSize(N) < near.SampleSize(N) {
			t.Errorf("ceil rounding produced smaller n for N=%d", N)
		}
	}
}

func TestSampleSizeMonotoneInPopulation(t *testing.T) {
	c := DefaultConfig()
	f := func(a, b uint32) bool {
		n1, n2 := int64(a%1e6), int64(b%1e6)
		if n1 > n2 {
			n1, n2 = n2, n1
		}
		return c.SampleSize(n1) <= c.SampleSize(n2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSampleSizeDecreasesAwayFromHalf(t *testing.T) {
	// p·(1-p) is maximal at 0.5 (Fig. 1 left), so n must shrink as p
	// departs from 0.5 in either direction.
	c := DefaultConfig()
	const N = 589824
	nHalf := c.SampleSize(N)
	for _, p := range []float64{0.4, 0.25, 0.1, 0.01, 0.6, 0.9} {
		if got := c.WithP(p).SampleSize(N); got >= nHalf {
			t.Errorf("p=%v: n=%d not below n(0.5)=%d", p, got, nHalf)
		}
	}
}

func TestSampleSizeMonotoneInErrorMargin(t *testing.T) {
	const N = 147456
	c1, c2 := DefaultConfig(), DefaultConfig()
	c1.ErrorMargin = 0.005
	c2.ErrorMargin = 0.02
	if c1.SampleSize(N) <= c2.SampleSize(N) {
		t.Error("tighter margin should need more samples")
	}
}

func TestWithPClamps(t *testing.T) {
	c := DefaultConfig()
	if got := c.WithP(0).P; got <= 0 {
		t.Errorf("WithP(0) left p=%v", got)
	}
	if got := c.WithP(1).P; got >= 1 {
		t.Errorf("WithP(1) left p=%v", got)
	}
	if got := c.WithP(0.3).P; got != 0.3 {
		t.Errorf("WithP(0.3) = %v", got)
	}
}

func TestValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []SampleSizeConfig{
		{ErrorMargin: 0, Confidence: 0.99, P: 0.5},
		{ErrorMargin: 0.01, Confidence: 1.5, P: 0.5},
		{ErrorMargin: 0.01, Confidence: 0.99, P: 0},
		{ErrorMargin: 1, Confidence: 0.99, P: 0.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d passed validation", i)
		}
	}
}

func TestAchievedMarginRoundTrip(t *testing.T) {
	// The margin achieved by the computed sample size must not exceed
	// the requested margin by more than the rounding granularity.
	c := DefaultConfig()
	c.Rounding = RoundCeil
	for _, N := range []int64{1000, 27648, 589824, 17174144} {
		n := c.SampleSize(N)
		if m := c.AchievedMargin(n, N); m > c.ErrorMargin*1.0001 {
			t.Errorf("N=%d: achieved margin %v exceeds requested %v", N, m, c.ErrorMargin)
		}
	}
}

func TestAchievedMarginExhaustiveIsZero(t *testing.T) {
	c := DefaultConfig()
	if got := c.AchievedMargin(100, 100); got != 0 {
		t.Errorf("exhaustive margin = %v, want 0", got)
	}
	if got := c.AchievedMargin(5, 1); got != 0 {
		t.Errorf("N=1 margin = %v, want 0", got)
	}
}

func TestAchievedMarginShrinksWithN(t *testing.T) {
	c := DefaultConfig()
	const N = 100000
	prev := math.Inf(1)
	for _, n := range []int64{10, 100, 1000, 10000, 99999} {
		m := c.AchievedMargin(n, N)
		if m >= prev {
			t.Fatalf("margin did not shrink at n=%d: %v >= %v", n, m, prev)
		}
		prev = m
	}
}

func TestObservedMargin(t *testing.T) {
	c := DefaultConfig()
	// At pHat = 0.5 the observed margin equals the planned margin.
	if got, want := c.ObservedMargin(0.5, 1000, 100000), c.AchievedMargin(1000, 100000); got != want {
		t.Errorf("observed(0.5) = %v, planned = %v", got, want)
	}
	// Extreme observed proportions shrink the margin.
	if c.ObservedMargin(0.01, 1000, 100000) >= c.ObservedMargin(0.5, 1000, 100000) {
		t.Error("margin at pHat=0.01 should be below pHat=0.5")
	}
	// Degenerate proportions give zero margin.
	if c.ObservedMargin(0, 1000, 100000) != 0 {
		t.Error("margin at pHat=0 should be 0")
	}
}

func TestMinMaxNormalize(t *testing.T) {
	got := MinMaxNormalize([]float64{0, 5, 10}, 0, 0.5)
	want := []float64{0, 0.25, 0.5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("index %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestMinMaxNormalizeConstantInput(t *testing.T) {
	got := MinMaxNormalize([]float64{3, 3, 3}, 0, 0.5)
	for _, v := range got {
		if v != 0.25 {
			t.Errorf("constant input should map to midpoint, got %v", v)
		}
	}
}

func TestMinMaxNormalizeEmpty(t *testing.T) {
	if got := MinMaxNormalize(nil, 0, 1); len(got) != 0 {
		t.Error("empty input should give empty output")
	}
}

func TestMinMaxNormalizeBounds(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, math.Mod(v, 1e6))
			}
		}
		out := MinMaxNormalize(vals, 0, 0.5)
		for _, v := range out {
			if v < 0 || v > 0.5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMaxNormalizeExcludingOutliers(t *testing.T) {
	// One extreme outlier: it must be clamped to b, and the remaining
	// values must span the full [a, b] range (unlike plain min-max,
	// where the outlier would squash them near a).
	vals := []float64{1, 2, 3, 4, 5, 1e9}
	out := MinMaxNormalizeExcludingOutliers(vals, 0, 0.5)
	if out[5] != 0.5 {
		t.Errorf("outlier mapped to %v, want 0.5", out[5])
	}
	if out[0] != 0 {
		t.Errorf("min mapped to %v, want 0", out[0])
	}
	if math.Abs(out[4]-0.5) > 1e-12 {
		t.Errorf("non-outlier max mapped to %v, want 0.5", out[4])
	}
	// Compare: plain min-max would give out[4] ≈ 0.
	plain := MinMaxNormalize(vals, 0, 0.5)
	if plain[4] > 1e-6 {
		t.Errorf("sanity: plain normalize should squash, got %v", plain[4])
	}
}

func TestMinMaxNormalizeExcludingOutliersNoOutliers(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	a := MinMaxNormalizeExcludingOutliers(vals, 0, 0.5)
	b := MinMaxNormalize(vals, 0, 0.5)
	for i := range vals {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Errorf("index %d: with-outlier-handling %v != plain %v", i, a[i], b[i])
		}
	}
}

func TestMinMaxNormalizeExcludingOutliersInBounds(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		out := MinMaxNormalizeExcludingOutliers(vals, 0, 0.5)
		for _, v := range out {
			if v < 0 || v > 0.5 || math.IsNaN(v) {
				return false
			}
		}
		return len(out) == len(vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{1, 2, 3, 4}
	if got := Quantile(vals, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(vals, 1); got != 4 {
		t.Errorf("q1 = %v", got)
	}
	if got := Quantile(vals, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := Quantile([]float64{7}, 0.3); got != 7 {
		t.Errorf("singleton quantile = %v", got)
	}
}

func TestQuantilePanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty Quantile did not panic")
			}
		}()
		Quantile(nil, 0.5)
	}()
}

func TestMeanVarianceStdDev(t *testing.T) {
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(vals); got != 5 {
		t.Errorf("mean = %v", got)
	}
	if got := Variance(vals); got != 4 {
		t.Errorf("variance = %v", got)
	}
	if got := StdDev(vals); got != 2 {
		t.Errorf("std = %v", got)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty describe should be 0")
	}
}

func TestMeanStdFloat32(t *testing.T) {
	vals := []float32{1, 2, 3}
	if got := MeanFloat32(vals); got != 2 {
		t.Errorf("mean32 = %v", got)
	}
	if got := StdDevFloat32(vals); math.Abs(got-math.Sqrt(2.0/3)) > 1e-9 {
		t.Errorf("std32 = %v", got)
	}
}

func TestBernoulliVariancePeaksAtHalf(t *testing.T) {
	peak := BernoulliVariance(0.5)
	if peak != 0.25 {
		t.Fatalf("p(1-p) at 0.5 = %v", peak)
	}
	for p := 0.0; p <= 1.0; p += 0.01 {
		if BernoulliVariance(p) > peak+1e-15 {
			t.Fatalf("variance at %v exceeds peak", p)
		}
	}
}

func TestBinomialVariance(t *testing.T) {
	if got := BinomialVariance(100, 0.5); got != 25 {
		t.Errorf("binomial variance = %v", got)
	}
}

func TestHistogram(t *testing.T) {
	counts := Histogram([]float64{0, 0.1, 0.5, 0.9, 1.0, -5, 7}, 0, 1, 2)
	if counts[0] != 3 || counts[1] != 4 {
		t.Errorf("histogram = %v", counts)
	}
}

func TestSampleWithoutReplacementProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tc := range []struct{ n, k int64 }{{100, 10}, {100, 100}, {1, 1}, {10, 0}, {1 << 40, 1000}} {
		got := SampleWithoutReplacement(rng, tc.n, tc.k)
		if int64(len(got)) != tc.k {
			t.Fatalf("n=%d k=%d: got %d items", tc.n, tc.k, len(got))
		}
		seen := make(map[int64]bool, len(got))
		for _, v := range got {
			if v < 0 || v >= tc.n {
				t.Fatalf("sample %d out of range [0,%d)", v, tc.n)
			}
			if seen[v] {
				t.Fatalf("duplicate sample %d", v)
			}
			seen[v] = true
		}
	}
}

func TestSampleWithoutReplacementExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	got := SampleWithoutReplacement(rng, 50, 50)
	seen := make(map[int64]bool)
	for _, v := range got {
		seen[v] = true
	}
	if len(seen) != 50 {
		t.Errorf("k=n sample missing values: %d distinct", len(seen))
	}
}

func TestSampleWithoutReplacementUniform(t *testing.T) {
	// Chi-square-ish sanity: each of 10 items should be picked roughly
	// equally often when sampling 5 of 10 many times.
	rng := rand.New(rand.NewSource(9))
	counts := make([]int, 10)
	const trials = 20000
	for i := 0; i < trials; i++ {
		for _, v := range SampleWithoutReplacement(rng, 10, 5) {
			counts[v]++
		}
	}
	want := float64(trials) * 0.5
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Errorf("item %d picked %d times, want ≈ %v", i, c, want)
		}
	}
}

func TestSampleWithoutReplacementPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ n, k int64 }{{5, 6}, {-1, 0}, {5, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("n=%d k=%d did not panic", tc.n, tc.k)
				}
			}()
			SampleWithoutReplacement(rng, tc.n, tc.k)
		}()
	}
}

// floydMapReference is Floyd's algorithm over a Go map, the textbook form
// SampleWithoutReplacement must reproduce draw for draw.
func floydMapReference(rng *rand.Rand, n, k int64) []int64 {
	out := make([]int64, 0, k)
	seen := make(map[int64]struct{}, k)
	for j := n - k; j < n; j++ {
		t := rng.Int63n(j + 1)
		if _, dup := seen[t]; dup {
			t = j
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

// samplerCases spans both set regimes and their edges: empty and full
// samples, populations below one word or not a multiple of 64, and n at
// the ⌈n/64⌉ = 4·k threshold (n = 2560 and 2497 for k = 10) and one word
// above it (2561, 2624).
var samplerCases = []struct{ n, k int64 }{
	{0, 0}, {1, 0}, {1000, 0}, {1 << 30, 0},
	{1, 1}, {50, 50}, {64, 64}, {1000, 1000},
	{10, 3}, {17, 1}, {63, 5}, {63, 63},
	{1000, 100}, {100001, 777}, {73728, 13577},
	{2560, 10}, {2497, 10}, {2561, 10}, {2624, 10},
	{1 << 30, 1000}, {1 << 40, 50}, {17174144, 300},
}

// TestSampleWithoutReplacementMatchesMapReference: for every seed, one
// generator pair runs through all cases in turn, so each case also starts
// from an arbitrary mid-stream generator state. Outputs must agree and
// both generators must be left in the same state.
func TestSampleWithoutReplacementMatchesMapReference(t *testing.T) {
	var dense, sparse int
	for _, tc := range samplerCases {
		if denseDraw(tc.n, tc.k) {
			dense++
		} else {
			sparse++
		}
	}
	if dense == 0 || sparse == 0 {
		t.Fatalf("cases cover %d dense and %d sparse draws, want both regimes", dense, sparse)
	}
	if !denseDraw(2560, 10) || !denseDraw(2497, 10) || denseDraw(2561, 10) || denseDraw(2624, 10) {
		t.Fatal("the bitset regime does not end at ⌈n/64⌉ = 4·k words")
	}
	for seed := int64(0); seed < 1000; seed++ {
		got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for _, tc := range samplerCases {
			g, w := SampleWithoutReplacement(got, tc.n, tc.k), floydMapReference(want, tc.n, tc.k)
			if len(g) != len(w) {
				t.Fatalf("seed %d n=%d k=%d: %d draws, reference %d", seed, tc.n, tc.k, len(g), len(w))
			}
			for i := range g {
				if g[i] != w[i] {
					t.Fatalf("seed %d n=%d k=%d: draw %d = %d, reference %d", seed, tc.n, tc.k, i, g[i], w[i])
				}
			}
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: generator left at %d, reference at %d", seed, g, w)
		}
	}
}

// TestSampleWithoutReplacementAllocs pins the set to one allocation
// beside the result slice, in both regimes.
func TestSampleWithoutReplacementAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct{ n, k int64 }{{73728, 13577}, {1 << 30, 1000}} {
		if a := testing.AllocsPerRun(20, func() { SampleWithoutReplacement(rng, tc.n, tc.k) }); a > 2 {
			t.Errorf("n=%d k=%d (dense %v): %v allocs per call, want <= 2", tc.n, tc.k, denseDraw(tc.n, tc.k), a)
		}
	}
}

func TestProportionEstimate(t *testing.T) {
	c := DefaultConfig()
	p := ProportionEstimate{Successes: 50, SampleSize: 1000, PopulationSize: 100000}
	if got := p.PHat(); got != 0.05 {
		t.Errorf("pHat = %v", got)
	}
	m := p.Margin(c)
	if m <= 0 || m > 0.05 {
		t.Errorf("margin = %v out of plausible range", m)
	}
	if !p.Covers(c, 0.05) {
		t.Error("estimate should cover its own point value")
	}
	if p.Covers(c, 0.5) {
		t.Error("estimate should not cover a far value")
	}
	if pm := p.PlannedMargin(c); pm < m {
		t.Errorf("planned margin %v below observed-pHat margin %v (pHat far from 0.5)", pm, m)
	}
}

func TestProportionEstimateEmpty(t *testing.T) {
	var p ProportionEstimate
	if p.PHat() != 0 {
		t.Error("empty pHat should be 0")
	}
	if p.Margin(DefaultConfig()) != 1 {
		t.Error("empty margin should be 1 (no information)")
	}
}

func TestCombineStratified(t *testing.T) {
	// Two strata with different sizes and rates: combined pHat must be
	// the population-weighted mean, not the sample-weighted mean.
	parts := []ProportionEstimate{
		{Successes: 10, SampleSize: 100, PopulationSize: 1000}, // 10%
		{Successes: 90, SampleSize: 100, PopulationSize: 9000}, // 90%
	}
	got := Combine(parts)
	wantP := (0.1*1000 + 0.9*9000) / 10000
	if math.Abs(got.PHat()-wantP) > 0.005 {
		t.Errorf("combined pHat = %v, want ≈ %v", got.PHat(), wantP)
	}
	if got.SampleSize != 200 || got.PopulationSize != 10000 {
		t.Errorf("combined sizes = %d/%d", got.SampleSize, got.PopulationSize)
	}
}

func TestCombineEmpty(t *testing.T) {
	if got := Combine(nil); got.PopulationSize != 0 || got.PHat() != 0 {
		t.Error("combining nothing should give the zero estimate")
	}
}

func BenchmarkSampleSize(b *testing.B) {
	c := DefaultConfig()
	var acc int64
	for i := 0; i < b.N; i++ {
		acc += c.SampleSize(17174144)
	}
	_ = acc
}

func BenchmarkNormalQuantile(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += NormalQuantile(0.995)
	}
	_ = acc
}

// BenchmarkSampleWithoutReplacement prices one stratum draw in each set
// regime. dense is a data-unaware Table III stratum of ResNet-20 at
// e = 1%: the stuck-at population 2·36,864 of a 64→64 3×3 conv, of
// which Eq. 1 draws 13,577. sparse is 1,000 draws from 2^30.
func BenchmarkSampleWithoutReplacement(b *testing.B) {
	for _, bc := range []struct {
		name string
		n, k int64
	}{{"dense", 73728, 13577}, {"sparse", 1 << 30, 1000}} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sampleSink = SampleWithoutReplacement(rng, bc.n, bc.k)
			}
		})
	}
}

var sampleSink []int64

func TestWilsonIntervalBasics(t *testing.T) {
	c := DefaultConfig()
	// Zero successes: lower bound 0, upper bound small but positive.
	lo, hi := c.WilsonInterval(0, 100, 1000000)
	if lo != 0 {
		t.Errorf("lo = %v", lo)
	}
	if hi <= 0 || hi > 0.15 {
		t.Errorf("hi = %v, want small positive", hi)
	}
	// All successes: mirror image.
	lo2, hi2 := c.WilsonInterval(100, 100, 1000000)
	if hi2 != 1 {
		t.Errorf("hi2 = %v", hi2)
	}
	if math.Abs((1-lo2)-hi) > 1e-9 {
		t.Errorf("interval not symmetric: 1-lo2=%v hi=%v", 1-lo2, hi)
	}
	// Contains the observed proportion.
	lo3, hi3 := c.WilsonInterval(30, 100, 1000000)
	if lo3 > 0.3 || hi3 < 0.3 {
		t.Errorf("interval [%v,%v] misses 0.3", lo3, hi3)
	}
}

func TestWilsonIntervalShrinksWithN(t *testing.T) {
	c := DefaultConfig()
	prev := 1.0
	for _, n := range []int64{10, 100, 1000, 10000} {
		lo, hi := c.WilsonInterval(n/10, n, 1e9)
		if w := hi - lo; w >= prev {
			t.Fatalf("width %v did not shrink at n=%d", w, n)
		} else {
			prev = w
		}
	}
}

func TestWilsonIntervalExhaustive(t *testing.T) {
	c := DefaultConfig()
	// Sampling the whole population: FPC zeroes the variance term but
	// the z²/n prior width remains; the interval must still contain p̂
	// tightly and stay in [0,1].
	lo, hi := c.WilsonInterval(5, 100, 100)
	if lo > 0.05 || hi < 0.05 || lo < 0 || hi > 1 {
		t.Errorf("exhaustive interval [%v,%v]", lo, hi)
	}
}

func TestWilsonIntervalNoSample(t *testing.T) {
	c := DefaultConfig()
	lo, hi := c.WilsonInterval(0, 0, 100)
	if lo != 0 || hi != 1 {
		t.Errorf("no-information interval = [%v,%v]", lo, hi)
	}
}

func TestWilsonCoversLikeWald(t *testing.T) {
	// For comfortable n and interior p̂ the two intervals agree closely.
	c := DefaultConfig()
	const n, x, N = 10000, 500, 10000000
	lo, hi := c.WilsonInterval(x, n, N)
	pHat := float64(x) / n
	wald := c.ObservedMargin(pHat, n, N)
	if math.Abs((hi-lo)/2-wald) > wald*0.05 {
		t.Errorf("wilson half-width %v vs wald %v", (hi-lo)/2, wald)
	}
}
