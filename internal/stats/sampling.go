package stats

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// SampleWithoutReplacement draws k distinct integers uniformly at random
// from [0, n) using Robert Floyd's algorithm, which needs O(k) expected
// time regardless of n. Sampling without replacement is what the finite
// population correction of Eq. 1 assumes; sampling with replacement would
// inflate the variance for n close to N.
//
// Floyd's algorithm needs a set of the values drawn so far. A dense
// bitset over [0, n) is used whenever its ⌈n/64⌉ words number at most
// 4·k; sparser draws use a linear-probing hash table of more than 2k and
// at most 4k slots. Either way the set costs at most 32 bytes per draw,
// and the call makes two allocations: the set and the result. The set is
// an implementation detail: the generator calls, their order, the
// duplicate rule and the returned sequence are exactly those of the
// textbook version over a map, for any generator state.
//
// The returned slice is in insertion order (not sorted). It panics if
// k < 0, n < 0, or k > n. FloydSampler draws the same sequence chunk by
// chunk.
func SampleWithoutReplacement(rng *rand.Rand, n, k int64) []int64 {
	var s FloydSampler
	s.Reset(rng, n, k)
	out := make([]int64, k)
	s.Draw(out)
	return out
}

// FloydSampler is SampleWithoutReplacement made resumable: Reset starts a
// draw of k from [0, n), and successive Draw calls hand out that draw's
// sequence chunk by chunk. The concatenated chunks are exactly
// SampleWithoutReplacement(rng, n, k), and the generator is left in the
// same state, for any generator state and any chunking. The set storage
// is kept across Resets, so a sampler reused for many draws allocates
// only when a draw needs a larger set than any before it.
//
// The zero value is ready for Reset. A FloydSampler is not safe for
// concurrent use.
type FloydSampler struct {
	rng  *rand.Rand
	n, j int64 // population size, and the next Floyd index (draws remain while j < n)
	// dense selects the bitset (bits) over the hash set (set); see
	// denseDraw. Both keep their capacity across Resets.
	dense bool
	bits  []uint64
	set   drawnSet
}

// Reset starts a new draw of k distinct integers from [0, n) on rng,
// discarding whatever remained of the previous one. It panics if k < 0,
// n < 0, or k > n.
func (s *FloydSampler) Reset(rng *rand.Rand, n, k int64) {
	if k < 0 || n < 0 || k > n {
		panic(fmt.Sprintf("stats: cannot sample %d from %d", k, n))
	}
	s.rng, s.n, s.j = rng, n, n-k
	s.dense = denseDraw(n, k)
	if s.dense {
		s.bits = resize(s.bits, int((n+63)/64))
		return
	}
	b := bits.Len64(uint64(k)) + 1
	s.set = drawnSet{table: resize(s.set.table, 1<<b), shift: uint(64 - b)}
}

// resize returns a zeroed slice of length n, reusing buf's storage when
// it is large enough.
func resize[T uint64 | int64](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// Remaining returns how many draws of the current Reset are still to come.
func (s *FloydSampler) Remaining() int64 { return s.n - s.j }

// Draw fills dst with the next len(dst) values of the draw. It panics if
// dst is longer than Remaining.
func (s *FloydSampler) Draw(dst []int64) {
	if int64(len(dst)) > s.n-s.j {
		panic(fmt.Sprintf("stats: drawing %d with %d remaining", len(dst), s.n-s.j))
	}
	rng, j := s.rng, s.j
	if s.dense {
		seen := s.bits
		for i := range dst {
			t := rng.Int63n(j + 1)
			if seen[t>>6]&(1<<(t&63)) != 0 {
				t = j
			}
			seen[t>>6] |= 1 << (t & 63)
			dst[i] = t
			j++
		}
	} else {
		seen := s.set
		for i := range dst {
			t := rng.Int63n(j + 1)
			sl := seen.slot(t)
			if seen.table[sl] != 0 {
				// Every earlier draw is below j, so j is never in the set.
				t = j
				sl = seen.slot(t)
			}
			seen.table[sl] = t + 1
			dst[i] = t
			j++
		}
	}
	s.j = j
}

// denseDraw reports whether a bitset over [0, n) stays within the hash
// table's bound of 32 bytes per draw: ⌈n/64⌉ ≤ 4·k words, which is
// n ≤ 256·k.
func denseDraw(n, k int64) bool { return n <= 256*k }

// drawnSet is an insert-only open-addressing hash set of non-negative
// integers for Floyd's algorithm on sparse draws. Slots hold value+1, so
// the zero slot is empty. Reset sizes the table to the smallest power of
// two above 2k slots, which keeps the load factor below one half.
type drawnSet struct {
	table []int64
	shift uint
}

// slot returns the index holding v, or the empty slot ending v's probe
// sequence when v is absent. The hash is Fibonacci hashing: the top bits
// of v times 2^64/φ.
func (s drawnSet) slot(v int64) int {
	mask := len(s.table) - 1
	i := int((uint64(v) * 0x9e3779b97f4a7c15) >> s.shift)
	for s.table[i] != 0 && s.table[i] != v+1 {
		i = (i + 1) & mask
	}
	return i
}

// ProportionEstimate is the outcome of estimating a success proportion
// from a sample drawn without replacement from a finite population.
type ProportionEstimate struct {
	// Successes is the number of critical outcomes observed.
	Successes int64
	// SampleSize is the number of trials n.
	SampleSize int64
	// PopulationSize is the size N of the finite population.
	PopulationSize int64
	// PlannedP is the a-priori success probability the stratum was
	// planned with (Eq. 1's p). It bounds the variance attributed to a
	// degenerate sample (0 or n successes) in stratified margins; zero
	// means "unknown" and is treated as the worst case 0.5.
	PlannedP float64
}

// PHat returns the point estimate x/n. It is 0 for an empty sample.
func (p ProportionEstimate) PHat() float64 {
	if p.SampleSize == 0 {
		return 0
	}
	return float64(p.Successes) / float64(p.SampleSize)
}

// Margin returns the half-width of the confidence interval around PHat
// at the configuration's confidence, evaluated at the observed
// proportion with the finite population correction. This is the error
// bar drawn in Figs. 5-7 of the paper.
func (p ProportionEstimate) Margin(c SampleSizeConfig) float64 {
	if p.SampleSize == 0 {
		return 1
	}
	return c.ObservedMargin(p.PHat(), p.SampleSize, p.PopulationSize)
}

// PlannedMargin returns the a-priori margin for the sample under the
// planning p of the configuration (rather than the observed proportion).
func (p ProportionEstimate) PlannedMargin(c SampleSizeConfig) float64 {
	if p.SampleSize == 0 {
		return 1
	}
	return c.AchievedMargin(p.SampleSize, p.PopulationSize)
}

// Covers reports whether the interval PHat ± Margin contains the value
// (e.g. the exhaustive ground-truth proportion).
func (p ProportionEstimate) Covers(c SampleSizeConfig, truth float64) bool {
	m := p.Margin(c)
	ph := p.PHat()
	return truth >= ph-m && truth <= ph+m
}

// Combine merges per-subpopulation estimates into a single estimate for
// the union population, weighting each subpopulation's proportion by its
// population size (stratified estimator). The merged Successes field is
// the implied success count rounded to the nearest integer; SampleSize
// is the total number of injections actually performed.
func Combine(parts []ProportionEstimate) ProportionEstimate {
	var totalN, totalSamples int64
	var weighted float64
	for _, p := range parts {
		totalN += p.PopulationSize
		totalSamples += p.SampleSize
		weighted += float64(p.PHat() * float64(p.PopulationSize))
	}
	if totalN == 0 {
		return ProportionEstimate{}
	}
	pHat := weighted / float64(totalN)
	return ProportionEstimate{
		Successes:      int64(float64(pHat*float64(totalSamples)) + 0.5),
		SampleSize:     totalSamples,
		PopulationSize: totalN,
	}
}
