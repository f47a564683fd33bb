// Package oracle provides a full-scale simulated fault-outcome substrate:
// a deterministic Critical/Non-critical verdict for every fault in a
// network's population, computable in O(1) per fault without running
// inference.
//
// # Why an oracle
//
// The paper validates its statistical methodology against exhaustive
// fault-injection campaigns that took 37 days (ResNet-20, 17.2M faults ×
// 10k images) and 54 days (MobileNetV2, 141M faults) on a GPU server.
// Reproducing those runs with CPU inference is out of reach by orders of
// magnitude, but the property under test — do the SFI estimates land
// within their predicted error margins of the exhaustive ground truth? —
// only requires *a* fixed ground-truth labelling of the full population
// with realistic structure. The oracle supplies that labelling:
//
//   - The verdict depends on the *actual* golden weight value and the
//     *actual* bit arithmetic of the fault: a stuck-at matching the
//     current bit value is always benign (exactly as in reality), and
//     the perturbation magnitude |w_faulty − w_golden| is computed with
//     the same IEEE-754 machinery the real injector uses.
//   - The probability that a perturbation becomes critical follows a
//     log-logistic curve in the perturbation magnitude relative to the
//     layer's weight scale — huge exponent-bit corruptions are almost
//     always critical, mantissa noise never is — with a mild per-layer
//     attenuation. This mirrors the structure reported by the paper and
//     the DNN-reliability literature, and is cross-validated in this
//     repository against real inference-based injection on SmallCNN
//     (see EXPERIMENTS.md).
//   - Tie-breaking randomness is a pure hash of (seed, fault), so the
//     ground truth is a fixed labelling: exhaustive enumeration and any
//     sampling scheme see consistent outcomes, which is precisely the
//     statistical setting of the paper (a finite population of Bernoulli
//     outcomes with heterogeneous p across subpopulations).
package oracle

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"cnnsfi/internal/evalstats"
	"cnnsfi/internal/faultmodel"
	"cnnsfi/internal/fp"
	"cnnsfi/internal/nn"
	"cnnsfi/internal/stats"
)

// Config tunes the criticality surface.
type Config struct {
	// Seed fixes the ground-truth labelling.
	Seed int64
	// Alpha is the log-logistic steepness (default 2.0; the curve must
	// be steep enough that perturbations of the order of the weight
	// scale — sign flips, low exponent bits — are almost never critical,
	// matching inference-based results and the DNN-reliability
	// literature).
	Alpha float64
	// Tau is the relative perturbation at which criticality reaches
	// half of PMax (default 100: a perturbation 100× the layer's weight
	// scale is critical about half the time).
	Tau float64
	// PMax is the asymptotic criticality of unbounded perturbations
	// (default 0.97; even 2^127 corruptions are occasionally masked,
	// e.g. by ReLU clipping or dead channels).
	PMax float64
	// LayerAttenuation multiplies PMax per layer index (default 0.985):
	// deeper layers have slightly fewer propagation opportunities.
	LayerAttenuation float64
}

// DefaultConfig returns the calibrated default surface. The calibration
// is cross-checked against real inference-based injection on SmallCNN
// (see TestOracleMatchesInferenceStructure and EXPERIMENTS.md): the
// exponent MSB is almost always critical under stuck-at-1, sign and
// mid-exponent faults are rare events, mantissa faults are benign.
func DefaultConfig(seed int64) Config {
	return Config{Seed: seed, Alpha: 2.0, Tau: 100, PMax: 0.97, LayerAttenuation: 0.985}
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 2.0
	}
	if c.Tau == 0 {
		c.Tau = 100
	}
	if c.PMax == 0 {
		c.PMax = 0.97
	}
	if c.LayerAttenuation == 0 {
		c.LayerAttenuation = 0.985
	}
	return c
}

// Oracle labels every fault of a network's stuck-at universe.
//
// IsCritical is safe for concurrent use (the verdict is a pure function
// of the snapshot and the seed), but campaigns should give each worker
// its own CloneForWorker view: a view shares every read-only field and
// counts into its own cache-line-padded counter slot, so workers never
// contend on a shared counter.
type Oracle struct {
	cfg      Config
	space    faultmodel.Space
	weights  [][]float32
	scale    []float64 // per-layer weight scale (std dev)
	pmax     []float64 // per-layer attenuated PMax
	seedHash uint64    // FNV-1a state after mixing cfg.Seed; see hashUnit

	// latency, when non-nil, receives the wall time of every full
	// (non-masked) verdict; see SetLatencyHistogram.
	latency *evalstats.Histogram

	// counters is owned by the root oracle and shared by all its views;
	// slot is the one this view counts into (slot 0 for the root).
	counters *counters
	slot     *counterSlot
}

// counterSlots is the fixed number of counter slots behind one root
// oracle and all its views. Views beyond it share slots round-robin,
// which stays correct (the counters are atomic) and only brings back
// some contention; the storage never grows, however many campaigns or
// supervision retries clone the oracle.
const counterSlots = 64

// counterSlot backs EvalStats for one view: how many verdicts came from
// the masked-fault short-circuit vs the full perturbation model. It is
// padded to two cache lines so that views counting into neighbouring
// slots never share a line (adjacent-line prefetch pulls lines in
// pairs).
type counterSlot struct {
	skipped, evaluated atomic.Int64
	_                  [128 - 16]byte
}

// counters is the fixed counter storage a root oracle owns and every
// view cloned from it shares.
type counters struct {
	slots [counterSlots]counterSlot
	next  atomic.Uint64 // clones handed out so far
}

// New snapshots the network's weights and builds the oracle over its
// permanent stuck-at universe.
func New(net *nn.Network, cfg Config) *Oracle {
	cfg = cfg.withDefaults()
	layers := net.WeightLayers()
	o := &Oracle{
		cfg:      cfg,
		space:    faultmodel.NewStuckAt(net.LayerParamCounts(), fp.Bits32),
		weights:  make([][]float32, len(layers)),
		scale:    make([]float64, len(layers)),
		pmax:     make([]float64, len(layers)),
		seedHash: fnvMix(fnvOffset, uint64(cfg.Seed)),
		counters: new(counters),
	}
	o.slot = &o.counters.slots[0]
	att := 1.0
	for l, wl := range layers {
		w := make([]float32, wl.NumWeights())
		copy(w, wl.WeightData())
		o.weights[l] = w
		s := stats.StdDevFloat32(w)
		if s < 1e-6 {
			s = 1e-6
		}
		o.scale[l] = s
		o.pmax[l] = cfg.PMax * att
		att *= cfg.LayerAttenuation
	}
	return o
}

// Space returns the fault universe the oracle labels.
func (o *Oracle) Space() faultmodel.Space { return o.space }

// CriticalProbability returns the oracle's underlying p for the fault:
// the log-logistic criticality of its perturbation magnitude. A no-op
// fault (stuck-at equal to the current bit value) has probability 0.
func (o *Oracle) CriticalProbability(f faultmodel.Fault) float64 {
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
	// Log-logistic: P = PMax / (1 + (Tau/rel)^Alpha). For the default
	// Alpha = 2 the plain product gives math.Pow's bits at a fraction of
	// the cost: Pow(q, 2) is the correctly rounded q·q whenever that is a
	// normal float64 or overflows to +Inf, and where q·q is subnormal
	// (Pow rounds twice there) 1 + q·q rounds to 1 either way.
	q := o.cfg.Tau / rel
	if o.cfg.Alpha == 2 {
		return o.pmax[f.Layer] / (1 + float64(q*q))
	}
	return o.pmax[f.Layer] / (1 + math.Pow(q, o.cfg.Alpha))
}

// Masked reports whether f is a stuck-at fault whose target bit already
// holds the stuck value in the oracle's weight snapshot. Such faults
// leave the weight bit-identical, so CriticalProbability is 0 by
// construction and the verdict is Non-critical without evaluating the
// perturbation model — the oracle-side mirror of the injector's
// masked-fault short-circuit. BitFlip is never masked.
func (o *Oracle) Masked(f faultmodel.Fault) bool {
	switch f.Model {
	case faultmodel.StuckAt0:
		return !fp.Bit32(o.weights[f.Layer][f.Param], f.Bit)
	case faultmodel.StuckAt1:
		return fp.Bit32(o.weights[f.Layer][f.Param], f.Bit)
	default:
		return false
	}
}

// IsCritical returns the fixed ground-truth verdict for the fault. It
// is safe for concurrent use. Masked faults short-circuit to false —
// exactly the verdict the full model produces for them (a bit-identical
// weight has CriticalProbability 0), as the differential tests pin.
func (o *Oracle) IsCritical(f faultmodel.Fault) bool {
	if o.Masked(f) {
		o.slot.skipped.Add(1)
		return false
	}
	o.slot.evaluated.Add(1)
	if o.latency != nil {
		start := time.Now()
		v := o.verdict(f)
		o.latency.Observe(time.Since(start))
		return v
	}
	return o.verdict(f)
}

// SetLatencyHistogram implements evalstats.LatencySampler: every
// subsequent non-masked verdict records its wall time into h. Install
// the histogram before the campaign starts: IsCritical reads the
// pointer without synchronization, and worker clones inherit whatever
// the oracle held when they were cut. A nil h disables timing (the
// default; the disabled path never touches the clock).
func (o *Oracle) SetLatencyHistogram(h *evalstats.Histogram) { o.latency = h }

// CloneForWorker implements evalstats.WorkerCloner: a view of the same
// oracle — weights, scale, pmax, config, space and latency histogram
// are shared, not copied — that counts into the next counter slot of
// the root, so concurrent workers never write the same cache line.
// Verdicts are identical to the receiver's; EvalStats on the root or
// any view sums every slot.
func (o *Oracle) CloneForWorker() evalstats.Evaluator {
	c := *o
	n := o.counters.next.Add(1) - 1
	c.slot = &o.counters.slots[1+n%(counterSlots-1)]
	return &c
}

// IsCriticalReference is IsCritical without the masked-fault
// short-circuit: the full perturbation-magnitude path for every fault.
// It exists as the reference side of the differential test harness and
// does not update any counter.
func (o *Oracle) IsCriticalReference(f faultmodel.Fault) bool {
	return o.verdict(f)
}

func (o *Oracle) verdict(f faultmodel.Fault) bool {
	p := o.CriticalProbability(f)
	if p <= 0 {
		return false
	}
	return hashFault(o.seedHash, f) < p
}

// EvalStats implements core.StatsReporter, summed over the root oracle
// and every view cloned from it. The oracle has no arena and no early
// exits; only the skip/evaluate split is populated.
func (o *Oracle) EvalStats() evalstats.EvalStats {
	var s evalstats.EvalStats
	for i := range o.counters.slots {
		c := &o.counters.slots[i]
		s.Skipped += c.skipped.Load()
		s.Evaluated += c.evaluated.Load()
	}
	return s
}

// ExhaustiveLayerRate enumerates every fault in layer l and returns the
// exact critical-fault proportion — the dark-blue bars of Figs. 5-7.
func (o *Oracle) ExhaustiveLayerRate(l int) float64 {
	var critical, total int64
	for bit := 0; bit < o.space.Bits; bit++ {
		c, t := o.ExhaustiveBitLayerCount(l, bit)
		critical += c
		total += t
	}
	return float64(critical) / float64(total)
}

// ExhaustiveBitLayerCount enumerates the (bit, layer) subpopulation and
// returns (critical, total) counts.
func (o *Oracle) ExhaustiveBitLayerCount(l, bit int) (critical, total int64) {
	n := o.space.BitLayerTotal(l)
	for j := int64(0); j < n; j++ {
		if o.IsCritical(o.space.BitLayerFault(l, bit, j)) {
			critical++
		}
	}
	return critical, n
}

// ExhaustiveNetworkRate enumerates the entire population and returns the
// exact critical proportion. For MobileNetV2 this walks 141M faults;
// expect tens of seconds of CPU time.
func (o *Oracle) ExhaustiveNetworkRate() float64 {
	var critical, total int64
	for l := 0; l < o.space.NumLayers(); l++ {
		for bit := 0; bit < o.space.Bits; bit++ {
			c, t := o.ExhaustiveBitLayerCount(l, bit)
			critical += c
			total += t
		}
	}
	return float64(critical) / float64(total)
}

// Oracle implements both halves of the evaluator stats seam, and the
// per-worker clone seam.
var (
	_ evalstats.Reporter       = (*Oracle)(nil)
	_ evalstats.LatencySampler = (*Oracle)(nil)
	_ evalstats.WorkerCloner   = (*Oracle)(nil)
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvPrimePow[k] is fnvPrime^k mod 2^64.
var fnvPrimePow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime
	}
	return p
}()

// fnvMix folds the 8 little-endian bytes of v into the FNV-1a state h.
// XOR with a zero byte is a no-op, so the bytes above v's last nonzero
// byte contribute only their multiplies by the prime, and those fold
// into one multiply by a prime power: exact mod 2^64, and a chain of
// one multiply per significant byte plus one instead of eight.
func fnvMix(h, v uint64) uint64 {
	n := (bits.Len64(v) + 7) / 8
	for ; v != 0; v >>= 8 {
		h ^= v & 0xff
		h *= fnvPrime
	}
	return h * fnvPrimePow[8-n]
}

// hashUnit maps (seed, fault) to a uniform value in [0, 1) via FNV-1a
// over the 8-byte little-endian encodings of the seed and the fault's
// fields, then a splitmix64 finalizer.
func hashUnit(seed int64, f faultmodel.Fault) float64 {
	return hashFault(fnvMix(fnvOffset, uint64(seed)), f)
}

// hashFault finishes hashUnit from h, the FNV-1a state after the seed
// (which the oracle computes once, in New).
func hashFault(h uint64, f faultmodel.Fault) float64 {
	h = fnvMix(h, uint64(f.Layer))
	h = fnvMix(h, uint64(f.Param))
	h = fnvMix(h, uint64(f.Bit))
	h = fnvMix(h, uint64(f.Model))
	// Final avalanche (splitmix64 finalizer) to decorrelate low bits.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / float64(1<<53)
}
