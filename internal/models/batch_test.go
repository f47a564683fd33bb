package models

import (
	"math"
	"math/rand"
	"testing"

	"cnnsfi/internal/nn"
	"cnnsfi/internal/tensor"
)

// TestResNet20BatchInvariance pins the nn kernels' batch invariance on
// the deepest model the campaigns run: ResNet-20's ExecBatch on four
// images must equal four batch-1 runs bit for bit at every node, and so
// must the channel-partial suffixes that recompute a faulted output
// channel of each stride-2 stage conv. The inference campaigns rely on
// this when they check batch-1 verdicts against a batch-4 replay.
func TestResNet20BatchInvariance(t *testing.T) {
	const nb = 4
	net := ResNet20(1)
	rng := rand.New(rand.NewSource(5))
	imgs := make([]*tensor.Tensor, nb)
	x := tensor.New(nb, 3, 32, 32)
	sz := 3 * 32 * 32
	for i := range imgs {
		imgs[i] = tensor.New(1, 3, 32, 32)
		for j := range imgs[i].Data {
			imgs[i].Data[j] = float32(rng.NormFloat64())
		}
		copy(x.Data[i*sz:(i+1)*sz], imgs[i].Data)
	}

	// compare fails unless node i of image img in the batched outputs
	// equals node i of the batch-1 outputs.
	compare := func(what string, batched, single []*tensor.Tensor, from, img int) {
		t.Helper()
		for i := from; i < len(batched); i++ {
			per := batched[i].Len() / nb
			if single[i].Len() != per {
				t.Fatalf("%s: node %d holds %d elements per image, batch-1 run %d", what, i, per, single[i].Len())
			}
			for j, v := range single[i].Data {
				if g, e := math.Float32bits(batched[i].Data[img*per+j]), math.Float32bits(v); g != e {
					t.Fatalf("%s: image %d node %d elem %d: %08x, batch-1 %08x", what, img, i, j, g, e)
				}
			}
		}
	}

	golden := net.ExecBatch(x)
	singles := make([][]*tensor.Tensor, nb)
	for i, img := range imgs {
		singles[i] = net.ExecBatch(img)
		compare("golden", golden, singles[i], 0, i)
	}

	// Fault one weight of an output channel of every stride-2 conv and
	// recompute the suffix with the channel hint, on one network clone
	// per batch size so that each keeps its own arena's outputs.
	batched, single := net.Clone(), net.Clone()
	strided := 0
	for l, wl := range net.WeightLayers() {
		c, ok := wl.(*nn.Conv2D)
		if !ok || c.Stride != 2 {
			continue
		}
		strided++
		from := net.WeightNodeIndex(l)
		ksize := len(c.W) / c.OutC
		for _, oc := range []int{0, c.OutC / 2, c.OutC - 1} {
			p := oc*ksize + ksize/3
			w4, w1 := batched.WeightLayers()[l].WeightData(), single.WeightLayers()[l].WeightData()
			old := w4[p]
			w4[p], w1[p] = old*1e4+3, old*1e4+3
			scratch := append([]*tensor.Tensor(nil), golden...)
			batched.ExecBatchFromScratchChannel(x, scratch, from, oc)
			for i, img := range imgs {
				one := append([]*tensor.Tensor(nil), singles[i]...)
				single.ExecBatchFromScratchChannel(img, one, from, oc)
				compare(c.Label, scratch, one, from, i)
			}
			w4[p], w1[p] = old, old
		}
	}
	if strided != 2 {
		t.Fatalf("ResNet-20 has %d stride-2 convs, want 2", strided)
	}
}
