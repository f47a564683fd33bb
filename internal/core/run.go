package core

import (
	"context"
	"fmt"

	"cnnsfi/internal/evalstats"
	"cnnsfi/internal/faultmodel"
	"cnnsfi/internal/stats"
)

// Evaluator classifies a single fault as Critical or Non-critical. It is
// implemented by the inference-based injectors (package inject) and by
// the full-scale simulated substrate (package oracle).
//
// Concurrency rule: Run never calls IsCritical concurrently, so any
// Evaluator works there. RunParallel shares the evaluator across
// workers — IsCritical must then be safe for concurrent use (the
// activation injector is) — unless the evaluator also implements
// WorkerCloner, in which case each worker gets its own clone (the
// weight injector, which mutates live network weights, and the oracle,
// which counts per clone, do this). The interface is defined in
// internal/evalstats, below the substrates; see evalstats.Evaluator.
type Evaluator = evalstats.Evaluator

// Result is the outcome of executing a Plan: one proportion estimate per
// stratum, plus (for network-wise plans) the per-layer slices of the
// single global sample that the paper warns are statistically unsound.
type Result struct {
	// Plan is the executed campaign specification.
	Plan *Plan
	// Estimates aligns with Plan.Subpops.
	Estimates []stats.ProportionEstimate
	// LayerSlices is only populated for network-wise plans: the
	// per-layer tallies of the global sample. Their sample sizes are
	// whatever the uniform draw happened to allocate to each layer —
	// tiny for small layers — which is exactly why the per-layer
	// margins blow up (Fig. 6, leftmost group).
	LayerSlices map[int]stats.ProportionEstimate
	// Partial is set when the campaign was cancelled before every
	// stratum completed: Estimates carry the tallies of each stratum's
	// evaluated prefix (SampleSize = actual draws evaluated, which may
	// be below the planned Plan.Subpops[i].SampleSize).
	Partial bool `json:",omitempty"`
	// EarlyStopped lists the strata (indices into Plan.Subpops, in plan
	// order) halted by the engine's margin-based early stop; their
	// actual sample sizes are in Estimates, the planned ones in the
	// Plan.
	EarlyStopped []int `json:",omitempty"`
	// Ranges records the per-stratum [From, To) draw windows a
	// shard-range execution (WithDrawRanges) covered; nil for a
	// full-campaign run. Estimates then tally only the draws inside each
	// window, and MergeRangeResults uses the windows to verify that a
	// set of partial results tiles the full sample in draw order.
	Ranges []DrawRange `json:",omitempty"`
	// Quarantined lists the draws a supervised campaign excluded after
	// exhausting their retry budget, sorted by (stratum, draw index) so
	// the list is deterministic across worker counts. Each quarantined
	// draw is already subtracted from its stratum's Estimates SampleSize
	// — the effective n — so Estimate.Margin and every downstream
	// consumer automatically report the inflated margin of the reduced
	// sample. Empty (omitted from JSON) on unsupervised or healthy runs.
	Quarantined []QuarantinedFault `json:",omitempty"`
}

// Run draws each stratum's sample without replacement and evaluates it
// serially. The draw is deterministic in seed, so replicated samples
// S0-S9 of Fig. 6 are Run calls with seeds 0..9, and RunParallel with
// the same seed returns a bit-identical Result at any worker count.
//
// Run is a thin compatibility wrapper over the campaign Engine at one
// worker; use NewEngine directly for cancellation, streaming progress,
// checkpoint/resume, or early stop.
func Run(ev Evaluator, plan *Plan, seed int64) *Result {
	res, err := NewEngine(WithWorkers(1)).Execute(context.Background(), ev, plan, seed)
	if err != nil {
		// Unreachable: with no cancellable context, checkpoint, or early
		// stop configured, Execute has no error paths.
		panic(fmt.Sprintf("core: Run: %v", err))
	}
	return res
}

// decodeFault maps a stratum-local index to a concrete fault.
func decodeFault(space faultmodel.Space, sub Subpopulation, j int64) faultmodel.Fault {
	switch {
	case sub.Layer < 0:
		return space.GlobalFault(j)
	case sub.Bit < 0:
		return space.LayerFault(sub.Layer, j)
	default:
		return space.BitLayerFault(sub.Layer, sub.Bit, j)
	}
}

// NetworkEstimate combines all strata into a single whole-network
// estimate (population-weighted, with the stratified margin).
func (r *Result) NetworkEstimate() stats.Stratified {
	return stats.Stratified{Parts: r.Estimates}
}

// LayerEstimate returns the estimate for one layer's critical-fault
// proportion:
//
//   - layer-wise plans: the layer's own stratum;
//   - data-unaware / data-aware plans: the stratified combination of the
//     layer's 32 per-bit strata;
//   - network-wise plans: the layer's slice of the global sample (the
//     statistically unsound construction the paper analyzes; a layer the
//     sample never hit returns a zero-information estimate).
func (r *Result) LayerEstimate(layer int) stats.Stratified {
	if r.Plan.Approach == NetworkWise {
		if est, ok := r.LayerSlices[layer]; ok {
			return stats.Stratified{Parts: []stats.ProportionEstimate{est}}
		}
		return stats.Stratified{Parts: []stats.ProportionEstimate{
			{PopulationSize: r.Plan.Space.LayerTotal(layer), PlannedP: r.Plan.Config.P},
		}}
	}
	var parts []stats.ProportionEstimate
	for i, sub := range r.Plan.Subpops {
		if sub.Layer == layer {
			parts = append(parts, r.Estimates[i])
		}
	}
	if len(parts) == 0 {
		panic(fmt.Sprintf("core: plan has no strata for layer %d", layer))
	}
	return stats.Stratified{Parts: parts}
}

// BitEstimate returns the estimate for one (layer, bit) subpopulation.
// Only bit-granular plans (data-unaware, data-aware) can answer it; the
// paper's central argument is that coarser campaigns cannot (the 4th
// Bernoulli assumption fails). It panics for coarser plans.
func (r *Result) BitEstimate(layer, bit int) stats.ProportionEstimate {
	for i, sub := range r.Plan.Subpops {
		if sub.Layer == layer && sub.Bit == bit {
			return r.Estimates[i]
		}
	}
	panic(fmt.Sprintf("core: plan %s has no (layer %d, bit %d) stratum — bit-level questions need bit-level sampling",
		r.Plan.Approach, layer, bit))
}

// Injections returns the total number of experiments performed.
func (r *Result) Injections() int64 {
	var total int64
	for _, e := range r.Estimates {
		total += e.SampleSize
	}
	return total
}
