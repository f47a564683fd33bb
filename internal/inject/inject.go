// Package inject performs inference-based fault injection on a CNN: the
// role PyTorchFI plays in the paper. A fault (stuck-at or bit-flip on
// one weight bit) is applied in place, the network is re-evaluated on a
// fixed test set, the outcome is classified Critical or Non-critical,
// and the weight is restored.
//
// Four optimizations make exhaustive campaigns tractable on a CPU:
//
//   - Golden prefix caching: for every test image the activations of
//     every graph node are computed once; a fault in weight layer l only
//     invalidates nodes from that layer onward, so each experiment
//     re-executes only the suffix of the graph.
//   - Early exit: under the SDC criterion a fault is Critical as soon as
//     one image's top-1 prediction changes, so critical faults terminate
//     after the first mismatching image.
//   - Masked-fault short-circuit: a stuck-at fault whose target bit
//     already holds the stuck value (about half the stuck-at universe)
//     leaves the weight bit-identical and is classified Non-critical
//     with no inference at all. See Injector.Masked.
//   - Arena suffix execution: every image keeps its golden activation
//     cache, and every experiment re-executes one suffix pass per image
//     (nn.Network's ExecBatchFromScratchChannel at batch 1). Recomputed
//     activations come from a per-injector scratch arena, so
//     steady-state experiments perform zero heap allocations, and a
//     conv fault recomputes only its own output channel of the faulted
//     layer. EvalStats reports how each experiment was resolved.
//
// A further lever is parallelism: Injector.Clone produces per-worker
// copies that share the (immutable) golden state but own independent
// weight storage, so core.RunParallel can evaluate one campaign on all
// cores while each worker mutates only its private network.
package inject

import (
	"fmt"
	"sync/atomic"
	"time"

	"cnnsfi/internal/core"
	"cnnsfi/internal/dataset"
	"cnnsfi/internal/evalstats"
	"cnnsfi/internal/faultmodel"
	"cnnsfi/internal/fp"
	"cnnsfi/internal/nn"
	"cnnsfi/internal/tensor"
)

// Criterion selects how a fault's effect on the test set is classified.
type Criterion uint8

// Classification criteria.
const (
	// SDC marks a fault Critical if any image's top-1 prediction
	// differs from the golden top-1 (silent data corruption; the
	// strictest criterion and this package's default).
	SDC Criterion = iota
	// AccuracyDrop marks a fault Critical if the top-1 accuracy against
	// the ground-truth labels decreases relative to the golden run (the
	// paper's "depending on whether the top-1 prediction is correct").
	AccuracyDrop
	// MismatchRate marks a fault Critical if the fraction of images
	// whose top-1 changed exceeds Injector.Threshold.
	MismatchRate
)

// String names the criterion.
func (c Criterion) String() string {
	switch c {
	case SDC:
		return "sdc"
	case AccuracyDrop:
		return "accuracy-drop"
	case MismatchRate:
		return "mismatch-rate"
	default:
		return "unknown"
	}
}

// Injector owns a network, a fixed evaluation set, and the golden
// (fault-free) reference state. A single Injector is not safe for
// concurrent use — a fault mutates the network weights in place — but
// Clone produces independent per-worker copies that are: each clone
// owns a private copy of the injectable weights and shares the
// immutable golden state, which is how core.RunParallel evaluates an
// inference-based campaign on all cores.
type Injector struct {
	// Net is the network under test.
	Net *nn.Network
	// Criterion selects the Critical classification rule (default SDC).
	Criterion Criterion
	// Threshold is the mismatch-rate threshold for MismatchRate.
	Threshold float64

	images []*tensor.Tensor
	labels []int
	golden []int            // golden top-1 per image
	space  faultmodel.Space // stuck-at universe over Net's layers
	layers []nn.WeightLayer // resolved weight layers
	nodes  []int            // graph node index per weight layer
	acc    float64          // golden top-1 accuracy

	// counters aggregates the campaign-wide evaluation statistics
	// (masked skips, full evaluations, SDC early exits, arena bytes),
	// shared by every clone derived from the same root and updated
	// atomically.
	counters *evalCounters

	// latency, when non-nil, receives the wall time of every evaluated
	// experiment (masked skips are counted, not timed — they cost
	// nanoseconds and would both distort the histogram and double their
	// own cost). Shared with clones like counters; install it via
	// SetLatencyHistogram before the campaign starts.
	latency *evalstats.Histogram

	// inputs and caches are the golden state, built by New while the
	// weights are golden, immutable afterwards and shared with clones:
	// each evaluation image as a batch-1 NCHW tensor, and its golden
	// activation cache (one output per graph node). scratch is the
	// per-experiment cache view, per instance and never shared.
	inputs  []*tensor.Tensor
	caches  [][]*tensor.Tensor
	scratch []*tensor.Tensor
	// arenaSeen is how much of Net's arena growth this injector has
	// already published to counters.ArenaBytes (owner-only state).
	arenaSeen int64
}

// evalCounters is the shared, atomically-updated backing store for
// core.EvalStats. One instance is shared by a root injector and all its
// clones so a parallel campaign aggregates into a single tally.
type evalCounters struct {
	skipped    int64
	evaluated  int64
	earlyExits int64
	arenaBytes int64
}

// New builds an injector over the network and evaluation set, computing
// golden predictions and one golden activation cache per image. It
// panics on an empty dataset.
func New(net *nn.Network, ds *dataset.Dataset) *Injector {
	if ds.Len() == 0 {
		panic("inject: empty evaluation set")
	}
	inj := &Injector{
		Net:      net,
		layers:   net.WeightLayers(),
		counters: &evalCounters{},
	}
	for l := range inj.layers {
		inj.nodes = append(inj.nodes, net.WeightNodeIndex(l))
	}
	inj.space = faultmodel.NewStuckAt(net.LayerParamCounts(), fp.Bits32)
	correct := 0
	for _, s := range ds.Samples {
		in := tensor.New(append([]int{1}, s.Image.Shape...)...)
		copy(in.Data, s.Image.Data)
		cache := net.ExecBatch(in)
		pred := cache[len(cache)-1].ArgMax()
		if pred == s.Label {
			correct++
		}
		inj.images = append(inj.images, s.Image)
		inj.labels = append(inj.labels, s.Label)
		inj.golden = append(inj.golden, pred)
		inj.inputs = append(inj.inputs, in)
		inj.caches = append(inj.caches, cache)
	}
	inj.acc = float64(correct) / float64(ds.Len())
	return inj
}

// Space returns the permanent stuck-at fault universe of the network.
func (inj *Injector) Space() faultmodel.Space { return inj.space }

// GoldenAccuracy returns the fault-free top-1 accuracy on the
// evaluation set.
func (inj *Injector) GoldenAccuracy() float64 { return inj.acc }

// GoldenPredictions returns the fault-free top-1 predictions.
func (inj *Injector) GoldenPredictions() []int {
	out := make([]int, len(inj.golden))
	copy(out, inj.golden)
	return out
}

// NumImages returns the evaluation-set size.
func (inj *Injector) NumImages() int { return len(inj.images) }

// Clone returns an injector that shares this one's immutable golden
// state (evaluation images, labels, golden predictions, per-image golden
// activation caches, fault space) but owns an independent deep
// copy of the network's injectable weights, so the clone's IsCritical
// may run concurrently with the original's and with other clones'.
// EvalStats from every clone aggregate atomically into one shared
// tally. Cloning copies only the weight tensors (~1 MiB for ResNet-20);
// the golden activation caches — the expensive part of New — are reused.
func (inj *Injector) Clone() *Injector {
	c := &Injector{
		Net:       inj.Net.Clone(),
		Criterion: inj.Criterion,
		Threshold: inj.Threshold,
		images:    inj.images,
		labels:    inj.labels,
		golden:    inj.golden,
		space:     inj.space,
		nodes:     inj.nodes,
		acc:       inj.acc,
		counters:  inj.stats(),
		latency:   inj.latency,
		inputs:    inj.inputs,
		caches:    inj.caches,
	}
	c.layers = c.Net.WeightLayers()
	return c
}

// CloneForWorker implements core.WorkerCloner, letting core.RunParallel
// give each evaluation worker its own isolated injector.
func (inj *Injector) CloneForWorker() core.Evaluator { return inj.Clone() }

// stats returns the shared counter block, lazily initialising it for
// zero-value injectors (serial use only).
func (inj *Injector) stats() *evalCounters {
	if inj.counters == nil {
		inj.counters = &evalCounters{}
	}
	return inj.counters
}

// SetLatencyHistogram implements evalstats.LatencySampler: every
// subsequently evaluated experiment records its wall time into h
// (masked skips are not timed). Call it before the campaign starts and
// before cloning — clones inherit the pointer held at clone time, and
// the hot path reads it without synchronization. A nil h disables
// timing (the default; the disabled path never touches the clock).
func (inj *Injector) SetLatencyHistogram(h *evalstats.Histogram) { inj.latency = h }

// EvalStats implements core.StatsReporter: a snapshot of how this
// injector (and every clone sharing its root) has spent experiments.
// Mid-campaign reads are approximate (counters advance concurrently);
// reads after the campaign's goroutines are joined are exact.
func (inj *Injector) EvalStats() core.EvalStats {
	c := inj.stats()
	return core.EvalStats{
		Skipped:    atomic.LoadInt64(&c.skipped),
		Evaluated:  atomic.LoadInt64(&c.evaluated),
		EarlyExits: atomic.LoadInt64(&c.earlyExits),
		ArenaBytes: atomic.LoadInt64(&c.arenaBytes),
	}
}

// publishArenaGrowth adds any new growth of this injector's private
// arena to the shared ArenaBytes tally. Only the delta is published, so
// the aggregate across clones is the sum of every worker's retained
// scratch space.
func (inj *Injector) publishArenaGrowth(c *evalCounters) {
	if b := inj.Net.ScratchArena().Bytes(); b != inj.arenaSeen {
		atomic.AddInt64(&c.arenaBytes, b-inj.arenaSeen)
		inj.arenaSeen = b
	}
}

// checkFault panics if the fault's location or model is invalid.
func (inj *Injector) checkFault(f faultmodel.Fault) {
	if f.Layer < 0 || f.Layer >= len(inj.layers) {
		panic(fmt.Sprintf("inject: layer %d out of range", f.Layer))
	}
	if f.Param < 0 || f.Param >= inj.layers[f.Layer].NumWeights() {
		panic(fmt.Sprintf("inject: param %d out of range for layer %d", f.Param, f.Layer))
	}
	if f.Bit < 0 || f.Bit >= fp.Bits32 {
		panic(fmt.Sprintf("inject: bit %d out of range", f.Bit))
	}
	switch f.Model {
	case faultmodel.StuckAt0, faultmodel.StuckAt1, faultmodel.BitFlip:
	default:
		panic(fmt.Sprintf("inject: unsupported fault model %v", f.Model))
	}
}

// faultValue returns the corrupted weight value f produces from old.
func faultValue(old float32, f faultmodel.Fault) float32 {
	switch f.Model {
	case faultmodel.StuckAt0:
		return fp.ClearBit32(old, f.Bit)
	case faultmodel.StuckAt1:
		return fp.SetBit32(old, f.Bit)
	default: // BitFlip; checkFault rejected everything else
		return fp.FlipBit32(old, f.Bit)
	}
}

// Masked reports whether f is masked by construction: a stuck-at fault
// whose target bit already holds the stuck value. Applying such a fault
// leaves the weight bit-identical, so the "faulty" network IS the golden
// network and the verdict is Non-critical under every criterion — no
// inference needed, and the short-circuit is exact, not approximate.
// For any weight, bit i is either 0 or 1, masking exactly one of the two
// stuck-at variants, so about half of the stuck-at universe is masked.
// BitFlip always changes the stored bit and is never masked. The
// predicate is pure bit arithmetic (fp.Bit32), so denormal, NaN and Inf
// weights are classified exactly. Like Apply, it panics on an invalid
// fault.
func (inj *Injector) Masked(f faultmodel.Fault) bool {
	inj.checkFault(f)
	switch f.Model {
	case faultmodel.StuckAt0:
		return !fp.Bit32(inj.layers[f.Layer].WeightData()[f.Param], f.Bit)
	case faultmodel.StuckAt1:
		return fp.Bit32(inj.layers[f.Layer].WeightData()[f.Param], f.Bit)
	default:
		return false
	}
}

// Apply injects the fault into the network weights and returns a restore
// function that must be called to undo it. Any of the three fault models
// is accepted (campaigns sample from the stuck-at universe, but the
// multi-fault extension also applies transient flips to weights). It
// panics on an invalid fault location.
//
// The returned closure escapes to the heap; IsCritical and
// MismatchCount inline the same mutate-and-restore sequence instead to
// stay allocation-free.
func (inj *Injector) Apply(f faultmodel.Fault) (restore func()) {
	inj.checkFault(f)
	w := inj.layers[f.Layer].WeightData()
	old := w[f.Param]
	w[f.Param] = faultValue(old, f)
	return func() { w[f.Param] = old }
}

// IsCritical runs one complete fault-injection experiment: classify the
// fault as Non-critical outright if it is masked (no inference), else
// apply it, re-evaluate the suffix of the network on every image (with
// early exit under SDC), classify, restore. In steady state it performs
// no heap allocation.
func (inj *Injector) IsCritical(f faultmodel.Fault) bool {
	mismatches, correct, evaluated := inj.experiment(f, inj.Criterion == SDC)
	return evaluated && inj.verdict(mismatches, correct)
}

// MismatchCount applies the fault and returns how many evaluation images
// change their top-1 prediction (no early exit). Useful for analyses
// beyond the binary Critical/Non-critical classification. Masked faults
// short-circuit to 0, and the evaluation shares IsCritical's
// allocation-free path.
func (inj *Injector) MismatchCount(f faultmodel.Fault) int {
	mismatches, _, _ := inj.experiment(f, false)
	return mismatches
}

// experiment is the body IsCritical and MismatchCount share: counting,
// the masked short-circuit (evaluated = false), an inline
// mutate-and-restore around the evaluation loop, arena-growth
// publishing and latency timing.
func (inj *Injector) experiment(f faultmodel.Fault, stopAtFirst bool) (mismatches, correct int, evaluated bool) {
	c := inj.stats()
	if inj.Masked(f) {
		atomic.AddInt64(&c.skipped, 1)
		return 0, 0, false
	}
	atomic.AddInt64(&c.evaluated, 1)
	var start time.Time
	if inj.latency != nil {
		start = time.Now()
	}

	w := inj.layers[f.Layer].WeightData()
	old := w[f.Param]
	w[f.Param] = faultValue(old, f)
	defer func() {
		w[f.Param] = old
		inj.publishArenaGrowth(c)
		if inj.latency != nil {
			inj.latency.Observe(time.Since(start))
		}
	}()
	mismatches, correct = inj.evaluate(c, inj.nodes[f.Layer], inj.faultChannel(f), stopAtFirst)
	return mismatches, correct, true
}

// verdict classifies an evaluated experiment under the criterion.
func (inj *Injector) verdict(mismatches, correct int) bool {
	switch inj.Criterion {
	case SDC:
		return mismatches > 0
	case AccuracyDrop:
		return float64(correct)/float64(len(inj.images)) < inj.acc
	case MismatchRate:
		return float64(mismatches)/float64(len(inj.images)) > inj.Threshold
	default:
		panic(fmt.Sprintf("inject: unsupported criterion %v", inj.Criterion))
	}
}

// Injector implements both halves of the evaluator stats seam.
var (
	_ core.StatsReporter       = (*Injector)(nil)
	_ evalstats.LatencySampler = (*Injector)(nil)
)
