package inject

// The one evaluation loop. Every experiment — IsCritical, MismatchCount
// and IsCriticalMulti alike — re-executes one arena suffix pass per
// evaluation image, in evaluation-set order, against that image's golden
// activation cache (nn.ExecBatchFromScratchChannel at batch 1).

import (
	"sync/atomic"

	"cnnsfi/internal/faultmodel"
	"cnnsfi/internal/nn"
	"cnnsfi/internal/tensor"
)

// SetBatchSize does nothing; it is kept so existing callers compile.
// Every experiment evaluates one image per faulted forward pass: batching
// several images into one pass measured no faster (EXPERIMENTS.md,
// "Batched inference core"), and verdicts never depended on it.
func (inj *Injector) SetBatchSize(int) {}

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
// ExecBatchFromScratchChannel) on every image, in evaluation-set order,
// and counts the images whose top-1 prediction changed and those still
// classified correctly. With stopAtFirst it returns at the first
// mismatching image, skipping the remaining images, and counts an early
// exit unless that image was the last.
func (inj *Injector) evaluate(c *evalCounters, from, oc int, stopAtFirst bool) (mismatches, correct int) {
	if len(inj.scratch) != len(inj.Net.Nodes) {
		inj.scratch = make([]*tensor.Tensor, len(inj.Net.Nodes))
	}
	for i, in := range inj.inputs {
		copy(inj.scratch, inj.caches[i])
		pred := predictChecked(inj.Net.ExecBatchFromScratchChannel(in, inj.scratch, from, oc).Data)
		if pred != inj.golden[i] {
			mismatches++
			if stopAtFirst {
				if i < len(inj.golden)-1 {
					atomic.AddInt64(&c.earlyExits, 1)
				}
				return mismatches, correct
			}
		}
		if pred == inj.labels[i] {
			correct++
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
