package main

import (
	"fmt"
	"time"

	"cnnsfi/internal/nn"
	"cnnsfi/internal/tensor"
	"cnnsfi/sfi"
)

// nnCosts are the golden micro-passes over the workload's nn path, per
// image: a full forward, and a suffix pass from every weight layer's node.
type nnCosts struct {
	forwardUs float64
	gflops    float64
	flops     []float64 // per weight layer, per image
	suffixUs  []float64 // per weight layer
}

// microBudget is how long each micro-measurement repeats for (at least
// microMinReps times); the median repetition is reported.
const (
	microBudget  = 100 * time.Millisecond
	microMinReps = 3
)

// timePerImage runs fn (which processes n images) repeatedly and returns
// the median time per image in microseconds.
func timePerImage(n int, fn func()) float64 {
	var reps []float64
	start := time.Now()
	for len(reps) < microMinReps || time.Since(start) < microBudget {
		t := time.Now()
		fn()
		reps = append(reps, float64(time.Since(t).Nanoseconds())/1e3/float64(n))
	}
	return median(reps)
}

// measureNN times the golden executors of the workload's path on a
// private clone of the network (its own scratch arena): Exec and
// ExecFromScratch at batch 1, ExecBatch and ExecBatchFromScratchChannel
// at larger batches.
func measureNN(st *campaignSetup) nnCosts {
	net := st.net.Clone()
	var images []*tensor.Tensor
	for _, s := range st.ds.Samples {
		images = append(images, s.Image)
	}
	n := len(images)
	layers := net.WeightLayers()
	c := nnCosts{suffixUs: make([]float64, len(layers))}
	scratch := make([]*tensor.Tensor, len(net.Nodes))

	if st.batch <= 1 {
		caches := make([][]*tensor.Tensor, n)
		for i, img := range images {
			caches[i] = net.Exec(img)
		}
		c.flops = layerFLOPs(net, caches[0], false)
		c.forwardUs = timePerImage(n, func() {
			for _, img := range images {
				net.Exec(img)
			}
		})
		for k := range layers {
			from := net.WeightNodeIndex(k)
			c.suffixUs[k] = timePerImage(n, func() {
				for i, img := range images {
					copy(scratch, caches[i])
					net.ExecFromScratch(img, scratch, from)
				}
			})
		}
	} else {
		var inputs []*tensor.Tensor
		var caches [][]*tensor.Tensor
		sz := images[0].Len()
		for i := 0; i < n; i += st.batch {
			nb := min(st.batch, n-i)
			in := tensor.New(append([]int{nb}, images[0].Shape...)...)
			for j := 0; j < nb; j++ {
				copy(in.Data[j*sz:(j+1)*sz], images[i+j].Data)
			}
			inputs = append(inputs, in)
			caches = append(caches, net.ExecBatch(in))
		}
		c.flops = layerFLOPs(net, caches[0], true)
		c.forwardUs = timePerImage(n, func() {
			for _, in := range inputs {
				net.ExecBatch(in)
			}
		})
		for k, wl := range layers {
			from := net.WeightNodeIndex(k)
			oc := -1 // channel hint: the suffix a fault in output channel 0 recomputes
			if _, ok := wl.(*nn.Conv2D); ok {
				oc = 0
			}
			c.suffixUs[k] = timePerImage(n, func() {
				for ci, in := range inputs {
					copy(scratch, caches[ci])
					net.ExecBatchFromScratchChannel(in, scratch, from, oc)
				}
			})
		}
	}
	var total float64
	for _, f := range c.flops {
		total += f
	}
	c.gflops = total / (c.forwardUs * 1e3)
	return c
}

// layerFLOPs computes each weight layer's multiply-add work per image
// from its shape and its golden output shape (2 FLOPs per MAC).
func layerFLOPs(net *sfi.Network, cache []*tensor.Tensor, batched bool) []float64 {
	var out []float64
	for k, wl := range net.WeightLayers() {
		shape := cache[net.WeightNodeIndex(k)].Shape
		if batched {
			shape = shape[1:]
		}
		switch l := wl.(type) {
		case *nn.Conv2D:
			plane := 1
			for _, d := range shape[1:] {
				plane *= d
			}
			out = append(out, 2*float64(l.OutC*(l.InC/l.Groups)*l.KH*l.KW*plane))
		case *nn.Linear:
			out = append(out, 2*float64(l.In*l.Out))
		default:
			out = append(out, 2*float64(wl.NumWeights()))
		}
	}
	return out
}

// writeCostTable prints the per-weight-layer cost table of an inference
// workload's traced run: the golden suffix pass, the mean unmasked
// experiment, how many experiments were evaluated, and each layer's
// share of the total experiment time.
func writeCostTable(cfg runConfig, st *campaignSetup, costs nnCosts, layers []layerCost) {
	var total int64
	for _, c := range layers {
		total += c.unmaskedNs
	}
	fmt.Fprintf(cfg.out, "per-weight-layer cost (%s, batch %d; experiments summed over the traced passes)\n", st.net.NetName, st.batch)
	fmt.Fprintf(cfg.out, "  %-5s %-14s %12s %14s %10s %20s %9s\n",
		"layer", "name", "MFLOP/image", "suffix_us", "evaluated", "experiment_us", "share%")
	for k, wl := range st.net.WeightLayers() {
		c := layers[k]
		n := c.calls - c.masked
		exp, share := 0.0, 0.0
		if n > 0 {
			exp = float64(c.unmaskedNs) / float64(n) / 1e3
		}
		if total > 0 {
			share = float64(c.unmaskedNs) / float64(total) * 100
		}
		fmt.Fprintf(cfg.out, "  L%-4d %-14s %12.3f %14.1f %10d %20.1f %9.2f\n",
			k, wl.Name(), costs.flops[k]/1e6, costs.suffixUs[k], n, exp, share)
	}
}
