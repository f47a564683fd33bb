// End-to-end inference-based validation on a genuinely trained CNN: the
// real-forward-pass counterpart of the paper's exhaustive campaigns.
//
//  1. Train SmallCNN on the synthetic dataset with the built-in SGD
//     substrate (reaches ≈100% test accuracy in a few epochs).
//  2. Run an exhaustive fault-injection campaign over one layer with
//     real inference (every stuck-at fault on every weight bit,
//     classified by top-1 SDC against the golden predictions).
//  3. Run the four statistical campaigns restricted to that layer and
//     check each estimate against the exhaustive rate.
//
// The full four-layer exhaustive run (109,312 faults × 8 images) takes a
// couple of minutes; pass -all to do it. The default single-layer run
// finishes in a few seconds.
//
// Run with:
//
//	go run ./examples/smallcnn_validation [-all]
package main

import (
	"flag"
	"fmt"
	"time"

	"cnnsfi/sfi"
)

func main() {
	all := flag.Bool("all", false, "exhaustively inject every layer (minutes) instead of layer 0")
	flag.Parse()

	// 1. Train.
	net := sfi.TrainableSmallCNN(1)
	data := sfi.SyntheticDataset(sfi.DatasetConfig{N: 260, Seed: 5, Size: 16, Noise: 0.1})
	trainSet, testSet := data.Split(200)
	tr, err := sfi.NewTrainer(net, 0.002, 0.9)
	if err != nil {
		panic(err)
	}
	start := time.Now()
	losses := tr.Fit(trainSet, 10)
	fmt.Printf("trained SmallCNN in %v: loss %.3f → %.3f, test accuracy %.1f%%\n",
		time.Since(start).Round(time.Millisecond),
		losses[0], losses[len(losses)-1], sfi.Accuracy(net, testSet)*100)

	// 2. Golden state + injector over a fixed evaluation set.
	evalSet := sfi.SyntheticDataset(sfi.DatasetConfig{N: 8, Seed: 9, Size: 16, Noise: 0.1})
	inj := sfi.NewInjector(net, evalSet)
	space := inj.Space()
	fmt.Printf("fault population: %d (4 layers × 32 bits × 2 stuck-at)\n", space.Total())

	layers := []int{0}
	if *all {
		layers = []int{0, 1, 2, 3}
	}

	cfg := sfi.DefaultConfig()
	analysis := sfi.AnalyzeWeights(net.AllWeights())
	plans := []struct {
		name string
		plan *sfi.Plan
	}{
		{"network-wise", sfi.PlanNetworkWise(space, cfg)},
		{"layer-wise", restrict(sfi.PlanLayerWise(space, cfg), layers)},
		{"data-unaware", restrict(sfi.PlanDataUnaware(space, cfg), layers)},
		{"data-aware", restrict(sfi.PlanDataAware(space, cfg, analysis.P), layers)},
	}

	for _, l := range layers {
		// Exhaustive inference FI over the layer.
		start = time.Now()
		var critical int64
		n := space.LayerTotal(l)
		for j := int64(0); j < n; j++ {
			if inj.IsCritical(space.LayerFault(l, j)) {
				critical++
			}
		}
		truth := float64(critical) / float64(n)
		fmt.Printf("\nlayer %d exhaustive: %d faults, %.4f%% critical (%v)\n",
			l, n, truth*100, time.Since(start).Round(time.Millisecond))

		// Statistical estimates for the same layer, evaluated on all
		// cores: the injector clones its network weights per worker, and
		// the result is bit-identical to the serial sfi.Run at seed 0.
		for _, p := range plans {
			res := sfi.RunParallel(inj, p.plan, 0, 0)
			est := res.LayerEstimate(l)
			fmt.Printf("  %-13s n=%7d  estimate %.4f%% ± %.4f%%  covers=%v\n",
				p.name, est.SampleSize(), est.PHat()*100, est.Margin(cfg)*100,
				est.Covers(cfg, truth))
		}
	}
	fmt.Printf("\ntotal inference experiments: %d\n", inj.EvalStats().Experiments())
}

// restrict keeps only the plan strata targeting the given layers, so the
// example does not pay for injections in layers it never reports on.
func restrict(plan *sfi.Plan, layers []int) *sfi.Plan {
	keep := make(map[int]bool, len(layers))
	for _, l := range layers {
		keep[l] = true
	}
	var subpops []sfi.Subpopulation
	for _, s := range plan.Subpops {
		if keep[s.Layer] {
			subpops = append(subpops, s)
		}
	}
	out := *plan
	out.Subpops = subpops
	return &out
}
