package nn

import (
	"fmt"
	"math"
	"strings"

	"cnnsfi/internal/tensor"
)

// InputID is the pseudo-node index denoting the network input.
const InputID = -1

// Node is one step of a network's dataflow graph. Inputs refer to the
// outputs of earlier nodes by index (or InputID for the network input),
// so the node list is a topological order by construction.
type Node struct {
	Layer  Layer
	Inputs []int
}

// Network is a feed-forward CNN expressed as a DAG of layers. The last
// node's output is the network output (class scores).
type Network struct {
	// NetName is a human-readable model identifier such as "resnet20".
	NetName string
	// Nodes are the dataflow steps in topological order.
	Nodes []Node

	weightNodes []int // node indices of WeightLayers, in graph order

	// The arena executors' private state, created lazily and never
	// shared: Clone always hands out a clone without it, so each
	// worker's network grows its own. The concurrency-safe heap paths
	// (Exec, ExecFrom, ExecBatch) never touch it.
	//   - scratch is the arena the outputs are drawn from;
	//   - ins is the reusable layer-input buffer;
	//   - views holds the reusable headers of ExecFromScratch's
	//     per-image adapter.
	scratch *tensor.Arena
	ins     []*tensor.Tensor
	views   *imageViews
}

// NewNetwork creates an empty network with the given name.
func NewNetwork(name string) *Network { return &Network{NetName: name} }

// Add appends a layer fed by the given producer node indices and returns
// the new node's index. Passing no inputs wires the layer to the most
// recently added node (or the network input for the first node).
func (n *Network) Add(l Layer, inputs ...int) int {
	if len(inputs) == 0 {
		inputs = []int{len(n.Nodes) - 1} // previous node; -1 = InputID for first
	}
	for _, in := range inputs {
		if in < InputID || in >= len(n.Nodes) {
			panic(fmt.Sprintf("nn: node %q references invalid input %d", l.Name(), in))
		}
	}
	id := len(n.Nodes)
	n.Nodes = append(n.Nodes, Node{Layer: l, Inputs: inputs})
	if _, ok := l.(WeightLayer); ok {
		n.weightNodes = append(n.weightNodes, id)
	}
	return id
}

// WeightLayers returns the injectable layers in graph order. Their
// position in this slice is the "layer index" of the paper's tables
// (e.g. ResNet-20 layer 0 is the first convolution, layer 19 the final
// fully-connected layer).
func (n *Network) WeightLayers() []WeightLayer {
	out := make([]WeightLayer, len(n.weightNodes))
	for i, id := range n.weightNodes {
		out[i] = n.Nodes[id].Layer.(WeightLayer)
	}
	return out
}

// WeightNodeIndex returns the graph node index of weight layer l
// (paper's layer numbering).
func (n *Network) WeightNodeIndex(l int) int { return n.weightNodes[l] }

// NumWeightLayers returns the number of injectable layers (20 for
// ResNet-20, 54 for MobileNetV2).
func (n *Network) NumWeightLayers() int { return len(n.weightNodes) }

// TotalWeights returns the total parameter count of all injectable
// layers (268,336 for our ResNet-20; the paper lists 268,346, a +10
// discrepancy documented in DESIGN.md).
func (n *Network) TotalWeights() int {
	total := 0
	for _, id := range n.weightNodes {
		total += n.Nodes[id].Layer.(WeightLayer).NumWeights()
	}
	return total
}

// Clone returns a copy of the network for concurrent fault injection:
// every weight layer's storage is deep-copied (via WeightCloner), so
// mutating a clone's weights never affects the original or other
// clones, while stateless layers (activations, pooling, shortcuts,
// batch normalization) are shared read-only. Lazily folded state
// (BatchNorm2D's scale/shift) is folded eagerly first, so the shared
// layers are never written after cloning — the original and any number
// of clones may then run concurrently. The clone starts with no scratch
// arena: each owner's arena executors grow their own, so arena state is
// never shared between clones. It panics if a weight layer does not
// implement WeightCloner.
func (n *Network) Clone() *Network {
	c := &Network{NetName: n.NetName}
	c.Nodes = append([]Node(nil), n.Nodes...)
	c.weightNodes = append([]int(nil), n.weightNodes...)
	for _, node := range n.Nodes {
		if bn, ok := node.Layer.(*BatchNorm2D); ok && bn.scale == nil {
			bn.Refold()
		}
	}
	for _, id := range n.weightNodes {
		wc, ok := n.Nodes[id].Layer.(WeightCloner)
		if !ok {
			panic(fmt.Sprintf("nn: weight layer %q does not support cloning", n.Nodes[id].Layer.Name()))
		}
		c.Nodes[id].Layer = wc.CloneWeights()
	}
	return c
}

// ScratchArena returns the network's private scratch arena, creating it
// on first use. The arena (and therefore ExecFromScratch and
// ExecBatchFromScratchChannel) may only be used by the network's single
// owner; evaluators that share a network across goroutines must stay on
// the heap paths. See tensor.Arena for the invalidation rules.
func (n *Network) ScratchArena() *tensor.Arena {
	if n.scratch == nil {
		n.scratch = tensor.NewArena()
	}
	return n.scratch
}

// Forward runs the whole network on one CHW input and returns the output
// scores.
func (n *Network) Forward(x *tensor.Tensor) *tensor.Tensor {
	outs := n.Exec(x)
	return outs[len(outs)-1]
}

// Exec runs the network on one CHW image and returns every node's
// output (index-aligned with Nodes), shaped per image: CHW feature maps
// and rank-1 vectors. The returned slice is a fresh allocation and can
// be kept as a prefix cache for ExecFrom.
func (n *Network) Exec(x *tensor.Tensor) []*tensor.Tensor {
	outs := make([]*tensor.Tensor, len(n.Nodes))
	n.execImage(x, outs, 0, newImageViews(len(n.Nodes)), nil)
	return outs
}

// ExecFrom re-executes the graph starting at node from, reusing the
// cached outputs of earlier nodes. cache must be a slice previously
// produced by Exec (or ExecFrom) for the same input x; nodes ≥ from are
// overwritten. It returns the network output.
//
// Prefix caching is what makes fault injection affordable: a fault in
// weight layer l only invalidates nodes ≥ WeightNodeIndex(l), so the
// activations feeding that layer need not be recomputed for every fault.
func (n *Network) ExecFrom(x *tensor.Tensor, cache []*tensor.Tensor, from int) *tensor.Tensor {
	n.checkCache(cache)
	n.execImage(x, cache, from, newImageViews(len(n.Nodes)), nil)
	return cache[len(cache)-1]
}

// ExecFromScratch is ExecFrom with every recomputed node output (and any
// layer-internal workspace) drawn from the network's scratch arena
// instead of the heap. After a warm-up pass per distinct input shape the
// call performs zero heap allocations.
//
// The arena is Reset on entry, so tensors written into cache by a
// previous arena call are invalid the moment the next call starts:
// callers must re-copy their golden prefix into cache before every call
// and must not retain entries at indices ≥ from across calls.
// Single-owner only — see ScratchArena.
func (n *Network) ExecFromScratch(x *tensor.Tensor, cache []*tensor.Tensor, from int) *tensor.Tensor {
	n.checkCache(cache)
	a := n.ScratchArena()
	a.Reset()
	if n.views == nil {
		n.views = newImageViews(len(n.Nodes))
	}
	n.execImage(x, cache, from, n.views, a)
	return cache[len(cache)-1]
}

// ExecBatch runs the network on a batched input (leading N dimension)
// and returns every node's batched output, heap-allocated — the batched
// counterpart of Exec, usable as a golden cache for
// ExecBatchFromScratchChannel.
func (n *Network) ExecBatch(x *tensor.Tensor) []*tensor.Tensor {
	outs := make([]*tensor.Tensor, len(n.Nodes))
	n.run(x, outs, 0, -1, nil)
	return outs
}

// ExecBatchFromScratchChannel re-executes nodes ≥ from of a batched
// input against the batched golden cache, drawing every recomputed
// output from the network's scratch arena — the injection hot path,
// under ExecFromScratch's arena contract. It returns the batched network
// output ([N, classes]).
//
// oc is a channel hint for a single-weight fault: the caller asserts
// that, relative to the golden cache, the network's weights differ only
// inside node from's layer and only in the rows feeding that layer's
// output channel oc. When that node is a single-input Conv2D, its
// recomputation copies every other channel's plane from the golden
// cache entry and recomputes channel oc alone — bit-identical to a full
// recompute, since each output channel accumulates independently from
// its own (untouched) weight rows. Any other layer, or oc < 0,
// recomputes node from in full. Downstream nodes are always fully
// recomputed.
func (n *Network) ExecBatchFromScratchChannel(x *tensor.Tensor, cache []*tensor.Tensor, from, oc int) *tensor.Tensor {
	n.checkCache(cache)
	a := n.ScratchArena()
	a.Reset()
	n.run(x, cache, from, oc, a)
	return cache[len(cache)-1]
}

func (n *Network) checkCache(cache []*tensor.Tensor) {
	if len(cache) != len(n.Nodes) {
		panic(fmt.Sprintf("nn: cache length %d does not match %d nodes", len(cache), len(n.Nodes)))
	}
}

// run is the network's one executor: it executes nodes ≥ from on the
// batched input x, writing each node's batched output into outs, from
// the arena a when it is non-nil (single-owner) and from the heap
// otherwise (safe on a network shared across goroutines). oc ≥ 0 is
// ExecBatchFromScratchChannel's channel hint for node from.
func (n *Network) run(x *tensor.Tensor, outs []*tensor.Tensor, from, oc int, a *tensor.Arena) {
	for i := max(from, 0); i < len(n.Nodes); i++ {
		node := &n.Nodes[i]
		var ins []*tensor.Tensor
		if a != nil {
			if cap(n.ins) < len(node.Inputs) {
				n.ins = make([]*tensor.Tensor, len(node.Inputs))
			}
			ins = n.ins[:len(node.Inputs)]
		} else {
			ins = make([]*tensor.Tensor, len(node.Inputs))
		}
		for j, src := range node.Inputs {
			if src == InputID {
				ins[j] = x
			} else {
				ins[j] = outs[src]
			}
		}
		if i == from && oc >= 0 && len(ins) == 1 {
			if c, ok := node.Layer.(*Conv2D); ok && oc < c.OutC {
				outs[i] = c.convolve(a, ins[0], outs[i], oc)
				continue
			}
		}
		outs[i] = node.Layer.Forward(a, ins...)
	}
}

// imageViews are the tensor headers through which the per-image
// executors present a CHW image and its per-image cache to run as batch
// 1, and hand run's batch-1 outputs back shaped per image. Only headers
// are made: every view shares its tensor's data.
type imageViews struct {
	in      []batchView      // batch-1 views of the cached prefix; the last one is x's
	batched []*tensor.Tensor // the batch-1 cache run executes on
	out     []tensor.Tensor  // per-image views of run's outputs
}

// batchView is a reusable batch-1 view header together with its shape
// storage.
type batchView struct {
	t     tensor.Tensor
	shape []int
}

func newImageViews(nodes int) *imageViews {
	return &imageViews{
		in:      make([]batchView, nodes+1),
		batched: make([]*tensor.Tensor, nodes),
		out:     make([]tensor.Tensor, nodes),
	}
}

// of returns t viewed as a batch of one ([1, t.Shape...]), or nil for a
// nil t.
func (v *batchView) of(t *tensor.Tensor) *tensor.Tensor {
	if t == nil {
		return nil
	}
	v.shape = append(append(v.shape[:0], 1), t.Shape...)
	v.t = tensor.Tensor{Shape: v.shape, Data: t.Data}
	return &v.t
}

// execImage is the per-image adapter over run, making its headers in
// v. The arena path passes the network's own views (single-owner, so it
// allocates nothing once warm); the heap paths pass fresh ones, so they
// stay safe on a shared network and their outputs stay valid for as
// long as the caller keeps them.
func (n *Network) execImage(x *tensor.Tensor, cache []*tensor.Tensor, from int, v *imageViews, a *tensor.Arena) {
	from = min(max(from, 0), len(n.Nodes))
	for i, t := range cache[:from] {
		v.batched[i] = v.in[i].of(t)
	}
	n.run(v.in[len(n.Nodes)].of(x), v.batched, from, -1, a)
	for i := from; i < len(n.Nodes); i++ {
		b := v.batched[i]
		v.out[i] = tensor.Tensor{Shape: b.Shape[1:], Data: b.Data}
		cache[i] = &v.out[i]
	}
}

// Predict returns the top-1 class index for one input.
func (n *Network) Predict(x *tensor.Tensor) int {
	return n.Forward(x).ArgMax()
}

// LayerParamCounts returns the weight count of each injectable layer in
// order — the "Parameters" column of the paper's Table I.
func (n *Network) LayerParamCounts() []int {
	layers := n.WeightLayers()
	out := make([]int, len(layers))
	for i, l := range layers {
		out[i] = l.NumWeights()
	}
	return out
}

// AllWeights returns a snapshot copy of every injectable weight in layer
// order, used by the data-aware weight-distribution analysis.
func (n *Network) AllWeights() []float32 {
	out := make([]float32, 0, n.TotalWeights())
	for _, l := range n.WeightLayers() {
		out = append(out, l.WeightData()...)
	}
	return out
}

// Softmax converts scores to probabilities in a numerically stable way.
func Softmax(scores *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(scores.Shape...)
	if scores.Len() == 0 {
		return out
	}
	max := scores.Data[0]
	for _, v := range scores.Data[1:] {
		if v > max {
			max = v
		}
	}
	var sum float32
	for i, v := range scores.Data {
		e := exp32(v - max)
		out.Data[i] = e
		sum += e
	}
	if sum > 0 {
		for i := range out.Data {
			out.Data[i] /= sum
		}
	}
	return out
}

func exp32(v float32) float32 {
	return float32(math.Exp(float64(v)))
}

// Summary returns a human-readable table of the network's nodes: index,
// layer name, type, and (for weight layers) the parameter count and the
// paper-style weight-layer index.
func (n *Network) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d nodes, %d weight layers, %d parameters\n",
		n.NetName, len(n.Nodes), n.NumWeightLayers(), n.TotalWeights())
	wl := 0
	for i, node := range n.Nodes {
		fmt.Fprintf(&b, "%4d  %-22s %-16T", i, node.Layer.Name(), node.Layer)
		if l, ok := node.Layer.(WeightLayer); ok {
			fmt.Fprintf(&b, " L%-3d %8d params", wl, l.NumWeights())
			wl++
		}
		if len(node.Inputs) != 1 || node.Inputs[0] != i-1 {
			fmt.Fprintf(&b, "  inputs %v", node.Inputs)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
