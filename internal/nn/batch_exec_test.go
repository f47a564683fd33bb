package nn

import (
	"math"
	"slices"
	"testing"

	"cnnsfi/internal/tensor"
)

// batchInput stacks nb deterministic test images into one NCHW tensor.
func batchInput(nb int) *tensor.Tensor {
	imgs := make([]*tensor.Tensor, nb)
	for n := range imgs {
		imgs[n] = testInput(int64(n))
	}
	return stack(imgs...)
}

// TestExecBatchMatchesPerImage pins the kernels' batch invariance
// through both executors: for every image in the batch, every node's
// batched output slice must equal the per-image Exec output bit for
// bit, and Exec must return per-image shapes.
func TestExecBatchMatchesPerImage(t *testing.T) {
	n := testNet(t)
	const nb = 3
	x := batchInput(nb)
	got := n.ExecBatch(x)
	for img := 0; img < nb; img++ {
		want := n.Exec(testInput(int64(img)))
		for i := range n.Nodes {
			if got[i].Shape[0] != nb {
				t.Fatalf("node %d batch dim %d, want %d", i, got[i].Shape[0], nb)
			}
			if !slices.Equal(got[i].Shape[1:], want[i].Shape) {
				t.Fatalf("node %d per-image shape %v, want %v", i, want[i].Shape, got[i].Shape[1:])
			}
			bitsEqual(t, got[i], img, want[i])
		}
	}
}

// TestExecBatchFromScratchMatchesHeap is the batched counterpart of
// TestExecFromScratchMatchesExec: the arena path without a channel hint
// must reproduce the heap path bit for bit for every suffix start.
func TestExecBatchFromScratchMatchesHeap(t *testing.T) {
	n := testNet(t)
	for _, nb := range []int{1, 2, 4} {
		x := batchInput(nb)
		want := n.ExecBatch(x)
		cache := n.ExecBatch(x)
		scratch := make([]*tensor.Tensor, len(n.Nodes))
		for from := 0; from < len(n.Nodes); from++ {
			copy(scratch, cache)
			out := n.ExecBatchFromScratchChannel(x, scratch, from, -1)
			for i := from; i < len(n.Nodes); i++ {
				if !tensor.SameShape(scratch[i], want[i]) {
					t.Fatalf("nb=%d from=%d node %d shape %v, want %v", nb, from, i, scratch[i].Shape, want[i].Shape)
				}
				for j := range want[i].Data {
					got := math.Float32bits(scratch[i].Data[j])
					exp := math.Float32bits(want[i].Data[j])
					if got != exp {
						t.Fatalf("nb=%d from=%d node %d elem %d: %08x != %08x", nb, from, i, j, got, exp)
					}
				}
			}
			if out != scratch[len(scratch)-1] {
				t.Fatalf("nb=%d from=%d: returned tensor is not the last cache entry", nb, from)
			}
		}
	}
}

// TestExecBatchFromScratchSteadyStateAllocFree asserts the batched hot
// path reaches zero heap allocations once the arena is warm, with and
// without a channel hint.
func TestExecBatchFromScratchSteadyStateAllocFree(t *testing.T) {
	n := testNet(t)
	x := batchInput(4)
	cache := n.ExecBatch(x)
	scratch := make([]*tensor.Tensor, len(n.Nodes))
	for _, oc := range []int{-1, 0} {
		run := func() {
			copy(scratch, cache)
			n.ExecBatchFromScratchChannel(x, scratch, 0, oc)
		}
		run() // warm the arena
		if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
			t.Fatalf("oc=%d: warm ExecBatchFromScratchChannel allocates %.1f times per run, want 0", oc, allocs)
		}
	}
}

// TestExecBatchFromScratchChannelMatchesFull pins the channel-partial
// recompute: for every conv node and every output channel, perturbing
// one weight of that channel and re-executing via
// ExecBatchFromScratchChannel must reproduce a full heap ExecBatch of
// the perturbed network bit for bit (testNet's conv0 takes the
// GEMM path and its depthwise conv the direct path, so both algorithms
// are covered). Non-conv nodes and oc = -1 must fall back to the full
// recompute.
func TestExecBatchFromScratchChannelMatchesFull(t *testing.T) {
	n := testNet(t)
	const nb = 3
	x := batchInput(nb)
	cache := n.ExecBatch(x)
	scratch := make([]*tensor.Tensor, len(n.Nodes))

	check := func(node, oc int) {
		t.Helper()
		full := n.ExecBatch(x) // heap full recompute, arena untouched
		copy(scratch, cache)
		out := n.ExecBatchFromScratchChannel(x, scratch, node, oc)
		for i := node; i < len(n.Nodes); i++ {
			for j := range full[i].Data {
				got := math.Float32bits(scratch[i].Data[j])
				exp := math.Float32bits(full[i].Data[j])
				if got != exp {
					t.Fatalf("node %d oc %d: suffix node %d elem %d: %08x != %08x", node, oc, i, j, got, exp)
				}
			}
		}
		if out != scratch[len(scratch)-1] {
			t.Fatalf("node %d oc %d: returned tensor is not the last cache entry", node, oc)
		}
	}

	for _, node := range []int{0, 3} { // conv0 (im2col), dw (direct)
		conv := n.Nodes[node].Layer.(*Conv2D)
		for oc := 0; oc < conv.OutC; oc++ {
			w := conv.W[oc*len(conv.W)/conv.OutC]
			conv.W[oc*len(conv.W)/conv.OutC] = w + 0.5 // fault one weight of channel oc
			check(node, oc)
			conv.W[oc*len(conv.W)/conv.OutC] = w
		}
		check(node, -1) // fall back to full recompute
	}
	check(1, 2)  // BatchNorm2D node: non-conv fallback ignores oc
	check(11, 0) // Linear node: non-conv fallback
}

// TestExecBatchFaultedWeights re-checks batched ≡ per-image with a NaN
// and an Inf planted in conv weights, where a skipped tap and a ×0 tap
// differ: the algorithm choice and skip behavior must not depend on the
// batch size. Batch 1 and batch 2 run the same kernels in the same
// order, so even the NaN payloads match bit for bit.
func TestExecBatchFaultedWeights(t *testing.T) {
	n := testNet(t)
	c0 := n.Nodes[0].Layer.(*Conv2D)
	dw := n.Nodes[3].Layer.(*Conv2D)
	c0.W[5] = float32(math.Inf(1))
	dw.W[3] = float32(math.NaN())
	const nb = 2
	x := batchInput(nb)
	got := n.ExecBatch(x)
	for img := 0; img < nb; img++ {
		want := n.Exec(testInput(int64(img)))
		for i := range n.Nodes {
			bitsEqual(t, got[i], img, want[i])
		}
	}
}
