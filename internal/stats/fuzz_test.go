package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Fuzz targets for the Eq. 1 / Eq. 3 sample-size machinery and the
// resumable Floyd sampler. Run over the seed corpus by plain `go test`;
// explored further by the CI fuzz smoke stage (`go test
// -fuzz=FuzzSampleSize -fuzztime=30s`).

// FuzzSampleSize checks the structural invariants of Eq. 1 for
// arbitrary configurations: the sample size always lands in [1, N] for
// a nonempty population, shrinks (weakly) as the requested margin
// grows, and under RoundCeil the achieved margin never exceeds the
// requested one — the property that makes the conservative rounding
// mode conservative.
func FuzzSampleSize(f *testing.F) {
	f.Add(0.01, 0.99, 0.5, int64(17215926))  // ResNet-20, Table I
	f.Add(0.01, 0.99, 0.5, int64(141513952)) // MobileNetV2, Table I
	f.Add(0.05, 0.95, 0.5, int64(1))
	f.Add(0.001, 0.999, 0.0001, int64(1<<40))
	f.Add(0.9999, 0.5, 0.9999, int64(2))
	f.Add(math.NaN(), 0.99, 0.5, int64(100)) // must be rejected, not mis-sized
	f.Fuzz(func(t *testing.T, e, conf, p float64, N int64) {
		cfg := SampleSizeConfig{ErrorMargin: e, Confidence: conf, P: p}
		if err := cfg.Validate(); err != nil {
			// Invalid configurations must be rejected deterministically —
			// NaN/Inf parameters included — and SampleSize must refuse
			// them by panicking rather than returning a bogus count.
			defer func() {
				if recover() == nil {
					t.Errorf("SampleSize accepted invalid config %+v", cfg)
				}
			}()
			cfg.SampleSize(1000)
			return
		}
		if N < 0 || N > 1<<50 {
			t.Skip() // negative populations panic by contract; huge ones lose float precision
		}

		n := cfg.SampleSize(N)
		if n < 0 || n > N {
			t.Fatalf("SampleSize(%d) = %d outside [0, N] for %+v", N, n, cfg)
		}
		if N > 0 && n < 1 {
			t.Fatalf("SampleSize(%d) = %d; nonempty population needs at least one injection", N, n)
		}

		// Weak monotonicity in the margin: doubling e never increases n.
		if e2 := 2 * e; e2 < 1 {
			cfg2 := cfg
			cfg2.ErrorMargin = e2
			if n2 := cfg2.SampleSize(N); n2 > n {
				t.Errorf("n grew from %d to %d when margin relaxed %v -> %v", n, n2, e, e2)
			}
		}

		// RoundCeil: the achieved margin must meet the request (up to
		// float round-off), or the sample is exhaustive.
		ceil := cfg
		ceil.Rounding = RoundCeil
		nc := ceil.SampleSize(N)
		if nc < n {
			t.Errorf("RoundCeil n=%d below RoundNearest n=%d", nc, n)
		}
		if nc > 0 {
			if got := ceil.AchievedMargin(nc, N); got > e*(1+1e-9)+1e-12 {
				t.Errorf("RoundCeil achieved margin %v exceeds requested %v (n=%d, N=%d, %+v)",
					got, e, nc, N, cfg)
			}
		}
	})
}

// FuzzAchievedMargin checks the Eq. 3 inversion: margins are finite,
// non-negative, zero for exhaustive samples, and weakly decreasing in
// the sample size.
func FuzzAchievedMargin(f *testing.F) {
	f.Add(0.01, 0.99, 0.5, int64(2100), int64(17215926))
	f.Add(0.01, 0.99, 0.5, int64(1), int64(2))
	f.Add(0.05, 0.95, 0.0001, int64(50), int64(100))
	f.Fuzz(func(t *testing.T, e, conf, p float64, n, N int64) {
		cfg := SampleSizeConfig{ErrorMargin: e, Confidence: conf, P: p}
		if cfg.Validate() != nil || n <= 0 || N < 0 || N > 1<<50 {
			t.Skip()
		}
		m := cfg.AchievedMargin(n, N)
		if math.IsNaN(m) || math.IsInf(m, 0) || m < 0 {
			t.Fatalf("AchievedMargin(%d, %d) = %v for %+v", n, N, m, cfg)
		}
		if n >= N && m != 0 {
			t.Fatalf("exhaustive sample (n=%d >= N=%d) has margin %v, want 0", n, N, m)
		}
		if n+1 <= N {
			if m2 := cfg.AchievedMargin(n+1, N); m2 > m*(1+1e-12) {
				t.Errorf("margin grew from %v to %v as n went %d -> %d", m, m2, n, n+1)
			}
		}
	})
}

// FuzzWilsonInterval checks that the Wilson bounds always form a valid
// sub-interval of [0, 1] containing the observed proportion.
func FuzzWilsonInterval(f *testing.F) {
	f.Add(0.99, int64(0), int64(100), int64(1000))
	f.Add(0.99, int64(100), int64(100), int64(1000))
	f.Add(0.95, int64(3), int64(7), int64(7))
	f.Fuzz(func(t *testing.T, conf float64, successes, n, N int64) {
		cfg := SampleSizeConfig{ErrorMargin: 0.01, Confidence: conf, P: 0.5}
		if cfg.Validate() != nil || n <= 0 || n > 1<<40 || successes < 0 || successes > n {
			t.Skip()
		}
		lo, hi := cfg.WilsonInterval(successes, n, N)
		if !(lo >= 0 && hi <= 1 && lo <= hi) {
			t.Fatalf("WilsonInterval(%d, %d, %d) = [%v, %v] invalid", successes, n, N, lo, hi)
		}
		pHat := float64(successes) / float64(n)
		if pHat < lo-1e-12 || pHat > hi+1e-12 {
			t.Fatalf("interval [%v, %v] excludes observed proportion %v", lo, hi, pHat)
		}
	})
}

// FuzzFloydSamplerChunks checks the resumable sampler against the
// one-shot draw for arbitrary seeds, populations, sample sizes and chunk
// sizes: the chunks concatenate to SampleWithoutReplacement's sequence
// and both generators end in the same state. The sampler is reset twice
// per input so the second draw runs on reused set storage.
func FuzzFloydSamplerChunks(f *testing.F) {
	f.Add(int64(1), int64(73728), int64(13577), uint16(4096)) // dense Table III stratum
	f.Add(int64(2), int64(1<<30), int64(1000), uint16(7))     // sparse
	f.Add(int64(3), int64(64), int64(64), uint16(1))          // k = n, power of two
	f.Add(int64(4), int64(1000), int64(0), uint16(3))         // k = 0
	f.Fuzz(func(t *testing.T, seed, n, k int64, chunk uint16) {
		if n < 0 || n > 1<<40 || k < 0 || k > n || k > 1<<15 || chunk == 0 {
			t.Skip() // invalid sizes panic by contract; huge samples only cost time
		}
		got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		var s FloydSampler
		for rep := 0; rep < 2; rep++ {
			w := SampleWithoutReplacement(want, n, k)
			g := make([]int64, 0, k)
			s.Reset(got, n, k)
			buf := make([]int64, chunk)
			for s.Remaining() > 0 {
				c := buf[:min(int64(chunk), s.Remaining())]
				s.Draw(c)
				g = append(g, c...)
			}
			if !slices.Equal(g, w) {
				t.Fatalf("rep %d: chunked draw of %d from %d in chunks of %d diverges", rep, k, n, chunk)
			}
		}
		if got.Int63() != want.Int63() {
			t.Fatal("generators end in different states")
		}
	})
}
