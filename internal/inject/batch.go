package inject

// The golden chunks and the one evaluation loop. The evaluation images
// are stacked into NCHW chunks of up to SetBatchSize images (one image
// per chunk by default), each with its batched golden activation cache,
// and every experiment — IsCritical, MismatchCount and IsCriticalMulti
// alike — re-executes one arena suffix pass per chunk
// (nn.ExecBatchFromScratchChannel). The nn kernels are batch-invariant,
// so verdicts, mismatch counts and the EvalStats breakdown are
// bit-identical at every batch size; only wall time changes.

import (
	"sync/atomic"

	"cnnsfi/internal/faultmodel"
	"cnnsfi/internal/nn"
	"cnnsfi/internal/tensor"
)

// SetBatchSize selects how many evaluation images each faulted forward
// pass evaluates at once. n <= 1 means one image per pass; n larger than
// the evaluation set is clamped by construction (the final chunk simply
// holds the remainder). A new size rebuilds the golden chunks at once,
// so it must be called while the network's weights are golden — before
// the campaign starts, and before cloning, so that worker clones share
// the chunks instead of each holding its own.
func (inj *Injector) SetBatchSize(n int) {
	n = max(n, 0)
	old := inj.batch
	inj.batch = n
	if max(n, 1) != max(old, 1) {
		inj.buildChunks()
	}
}

// BatchSize returns the configured batch size (0 or 1 mean one image
// per pass).
func (inj *Injector) BatchSize() int { return inj.batch }

// buildChunks builds the golden chunk state from the current weights:
// the evaluation images stacked into NCHW chunks of up to max(batch, 1)
// images, and one heap-allocated batched golden activation cache per
// chunk. Chunks cover the images in evaluation-set order, so image i
// lives at position i%batch of chunk i/batch and the evaluation loop
// visits images in evaluation-set order at every batch size. The built
// state is immutable; clones taken afterwards share it.
func (inj *Injector) buildChunks() {
	size := max(inj.batch, 1)
	sz := inj.images[0].Len()
	shape := inj.images[0].Shape
	inj.batchInputs, inj.batchCaches = nil, nil
	for i := 0; i < len(inj.images); i += size {
		nb := min(size, len(inj.images)-i)
		in := tensor.New(append([]int{nb}, shape...)...)
		for n := 0; n < nb; n++ {
			copy(in.Data[n*sz:(n+1)*sz], inj.images[i+n].Data)
		}
		inj.batchInputs = append(inj.batchInputs, in)
		inj.batchCaches = append(inj.batchCaches, inj.Net.ExecBatch(in))
	}
}

// faultChannel returns the output channel of the faulted layer that a
// single weight fault can affect, or -1 when channel locality is
// unknown for the layer type. A Conv2D weight at Param belongs to
// exactly one output channel (its W is laid out oc-major), so a fault
// there leaves every other channel's output bit-identical to golden —
// the knowledge ExecBatchFromScratchChannel turns into a partial
// recompute of the faulted node.
func (inj *Injector) faultChannel(f faultmodel.Fault) int {
	if c, ok := inj.layers[f.Layer].(*nn.Conv2D); ok {
		return f.Param / (c.InC / c.Groups * c.KH * c.KW)
	}
	return -1
}

// evaluate is the evaluation loop of every experiment: it re-executes
// the network from node from (with channel hint oc, see
// ExecBatchFromScratchChannel) on every chunk, in evaluation-set order,
// and counts the images whose top-1 prediction changed and those still
// classified correctly. With stopAtFirst it returns at the first
// mismatching image, skipping the remaining images and chunks, and
// counts an early exit unless that image was the last.
func (inj *Injector) evaluate(c *evalCounters, from, oc int, stopAtFirst bool) (mismatches, correct int) {
	if len(inj.batchScratch) != len(inj.Net.Nodes) {
		inj.batchScratch = make([]*tensor.Tensor, len(inj.Net.Nodes))
	}
	scratch := inj.batchScratch
	img := 0
	for ci, in := range inj.batchInputs {
		copy(scratch, inj.batchCaches[ci])
		out := inj.Net.ExecBatchFromScratchChannel(in, scratch, from, oc)
		nb := in.Shape[0]
		k := out.Len() / nb
		for n := 0; n < nb; n++ {
			pred := predictChecked(out.Data[n*k : (n+1)*k])
			if pred != inj.golden[img] {
				mismatches++
				if stopAtFirst {
					if img < len(inj.golden)-1 {
						atomic.AddInt64(&c.earlyExits, 1)
					}
					return mismatches, correct
				}
			}
			if pred == inj.labels[img] {
				correct++
			}
			img++
		}
	}
	return mismatches, correct
}

// predictChecked returns the top-1 index of one image's scores (first
// occurrence on ties, -1 when empty), mapping any scores containing NaN
// to -1 — which never equals a golden prediction, so numerical
// corruption always counts as a mismatch.
func predictChecked(data []float32) int {
	idx := -1
	var best float32
	for i, v := range data {
		if v != v {
			return -1
		}
		if idx == -1 || v > best {
			best, idx = v, i
		}
	}
	return idx
}
