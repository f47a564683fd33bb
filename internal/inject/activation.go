package inject

import (
	"fmt"
	"sync/atomic"

	"cnnsfi/internal/dataset"
	"cnnsfi/internal/faultmodel"
	"cnnsfi/internal/fp"
	"cnnsfi/internal/nn"
	"cnnsfi/internal/tensor"
)

// ActivationInjector performs transient single-bit-flip injection on the
// *outputs* of the weight layers (PyTorchFI's "neuron" injection mode),
// the natural extension of the paper's weight fault model to datapath
// soft errors. A transient activation fault exists during exactly one
// inference, so the fault universe is
//
//	(layer, output element, evaluation image) × bit positions,
//
// and a fault is Critical when the top-1 prediction of *that image*
// changes relative to the golden run. The same Eq. 1 statistics apply:
// the universe is exposed as a faultmodel.Space whose per-layer
// "parameter" count is elements × images, so every planner in package
// core works on it unchanged.
//
// Unlike the weight Injector, IsCritical is safe for concurrent use:
// the network weights are never modified, each experiment corrupts a
// private copy of one cached activation tensor, and the experiment
// counter is updated atomically. core.RunParallel can therefore share
// one ActivationInjector across all workers without cloning.
type ActivationInjector struct {
	// Net is the network under test (its weights are never modified).
	Net *nn.Network

	images []*tensor.Tensor
	golden []int
	caches [][]*tensor.Tensor
	nodes  []int // graph node per weight layer
	elems  []int // output elements per weight layer
	space  faultmodel.Space

	// Injections counts the experiments run. It is updated atomically;
	// read it only after concurrent evaluation has been joined.
	Injections int64
}

// NewActivation builds the activation-fault injector, computing golden
// predictions and per-image activation caches. It panics on an empty
// dataset.
func NewActivation(net *nn.Network, ds *dataset.Dataset) *ActivationInjector {
	if ds.Len() == 0 {
		panic("inject: empty evaluation set")
	}
	inj := &ActivationInjector{Net: net}
	for l := 0; l < net.NumWeightLayers(); l++ {
		inj.nodes = append(inj.nodes, net.WeightNodeIndex(l))
	}
	for _, s := range ds.Samples {
		cache := net.Exec(s.Image)
		inj.images = append(inj.images, s.Image)
		inj.golden = append(inj.golden, cache[len(cache)-1].ArgMax())
		inj.caches = append(inj.caches, cache)
	}
	// Per-layer element counts come from the cached activations of the
	// first image (shapes are input-size dependent but identical across
	// the evaluation set).
	layerSizes := make([]int, len(inj.nodes))
	for l, node := range inj.nodes {
		inj.elems = append(inj.elems, inj.caches[0][node].Len())
		layerSizes[l] = inj.elems[l] * len(inj.images)
	}
	inj.space = faultmodel.NewBitFlip(layerSizes, fp.Bits32)
	return inj
}

// Space returns the transient activation-fault universe: one bit-flip
// fault per (layer output element, image, bit).
func (inj *ActivationInjector) Space() faultmodel.Space { return inj.space }

// Decode splits a fault's composite Param index into the output element
// and the evaluation image it addresses.
func (inj *ActivationInjector) Decode(f faultmodel.Fault) (elem, image int) {
	if err := inj.space.Validate(f); err != nil {
		panic(err)
	}
	return f.Param % inj.elems[f.Layer], f.Param / inj.elems[f.Layer]
}

// IsCritical runs one transient-fault experiment: corrupt one bit of one
// activation element during one image's inference and check whether its
// top-1 prediction changes. The golden prefix cache makes this a
// suffix-only re-execution. It is safe for concurrent use.
func (inj *ActivationInjector) IsCritical(f faultmodel.Fault) bool {
	if f.Model != faultmodel.BitFlip {
		panic(fmt.Sprintf("inject: activation faults are transient bit-flips, got %v", f.Model))
	}
	elem, image := inj.Decode(f)
	atomic.AddInt64(&inj.Injections, 1)

	node := inj.nodes[f.Layer]
	cache := inj.caches[image]

	// Corrupt a copy of the faulted node's golden output.
	corrupted := cache[node].Clone()
	corrupted.Data[elem] = fp.FlipBit32(corrupted.Data[elem], f.Bit)

	scratch := make([]*tensor.Tensor, len(inj.Net.Nodes))
	copy(scratch, cache)
	scratch[node] = corrupted
	out := inj.Net.ExecFrom(inj.images[image], scratch, node+1)
	return predictChecked(out.Data) != inj.golden[image]
}

// NumImages returns the evaluation-set size.
func (inj *ActivationInjector) NumImages() int { return len(inj.images) }

// LayerElems returns the number of output elements of weight layer l.
func (inj *ActivationInjector) LayerElems(l int) int { return inj.elems[l] }
