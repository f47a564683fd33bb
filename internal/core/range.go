package core

import (
	"fmt"
	"sort"

	"cnnsfi/internal/stats"
)

// This file is the engine's shard-range surface: executing only the
// [From, To) draw window of each stratum (WithDrawRanges) and folding
// such partial results back into the full-campaign Result
// (MergeRangeResults). Together they are the cut point federated
// campaigns are built on — a coordinator assigns contiguous per-stratum
// windows to member daemons, each member runs its window as a normal
// checkpointed job, and the merged Result is bit-identical to a
// single-node run of the same (plan, seed) by construction: the sample
// is always drawn in full (so the RNG stream never depends on the
// window), and tallies are pure sums over disjoint draw prefixes.

// DrawRange selects the contiguous [From, To) draw positions of one
// stratum's sample. From == To is a valid empty window.
type DrawRange struct {
	From int64 `json:"from"`
	To   int64 `json:"to"`
}

// Len returns the number of draws the range covers.
func (r DrawRange) Len() int64 { return r.To - r.From }

// WithDrawRanges restricts Execute to the [ranges[i].From,
// ranges[i].To) draw window of stratum i (one entry per plan stratum,
// in plan order). The full sample is still drawn exactly as a
// whole-campaign run would draw it — only evaluation is windowed — so
// draw j of stratum i denotes the same fault at every member of a
// federated campaign. Checkpoints written by a ranged run bind to the
// ranges (resuming with different ranges fails with
// ErrCheckpointRange), cursors are absolute draw positions, and the
// Result's Estimates tally the window only, with Result.Ranges
// recording the windows for MergeRangeResults.
//
// nil (the default) executes the full plan; an explicit empty window on
// every stratum is a valid no-op campaign.
func WithDrawRanges(ranges []DrawRange) Option {
	return func(e *Engine) { e.ranges = ranges }
}

// validateRanges checks a WithDrawRanges vector against the plan it
// will execute.
func validateRanges(ranges []DrawRange, plan *Plan) error {
	if ranges == nil {
		return nil
	}
	if len(ranges) != len(plan.Subpops) {
		return fmt.Errorf("core: engine: %d draw ranges for a %d-stratum plan", len(ranges), len(plan.Subpops))
	}
	for i, r := range ranges {
		if n := plan.Subpops[i].SampleSize; r.From < 0 || r.From > r.To || r.To > n {
			return fmt.Errorf("core: engine: stratum %d draw range [%d, %d) outside [0, %d]", i, r.From, r.To, n)
		}
	}
	return nil
}

// rangesEqual reports whether two WithDrawRanges vectors are the same
// campaign slice; nil (full run) only equals nil.
func rangesEqual(a, b []DrawRange) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// rangeBounds returns the [from, to) draw window of stratum i — the
// full sample without WithDrawRanges.
func (x *execution) rangeBounds(i int) (from, to int64) {
	if x.ranges == nil {
		return 0, x.plan.Subpops[i].SampleSize
	}
	return x.ranges[i].From, x.ranges[i].To
}

// plannedInjections is the draw total this execution covers: the plan
// total, or the sum of the draw-window lengths under WithDrawRanges.
func (x *execution) plannedInjections() int64 {
	if x.ranges == nil {
		return x.plan.TotalInjections()
	}
	var n int64
	for _, r := range x.ranges {
		n += r.Len()
	}
	return n
}

// MergeRangeResults folds the partial Results of shard-range executions
// back into the full-campaign Result, strictly in draw order: for every
// stratum the parts' windows must tile [0, SampleSize) contiguously in
// the order given. Each part must be a complete (non-partial) run of
// the same plan; a part with nil Ranges is
// treated as covering every stratum in full (a whole single-node run).
//
// The merged Result is byte-identical (via WriteJSON) to a single-node
// Execute of the same (plan, seed): estimates and per-layer slices are
// pure sums over disjoint draw windows, and quarantined faults carry
// absolute draw positions, so concatenating and sorting them reproduces
// the single-node list.
func MergeRangeResults(plan *Plan, parts []*Result) (*Result, error) {
	if plan == nil {
		return nil, fmt.Errorf("core: merge: nil plan")
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("core: merge: no partial results")
	}
	want := planFingerprint(plan)
	cursors := make([]int64, len(plan.Subpops))
	merged := &Result{Plan: plan}
	merged.Estimates = make([]stats.ProportionEstimate, len(plan.Subpops))
	for i, sub := range plan.Subpops {
		merged.Estimates[i] = stats.ProportionEstimate{
			PopulationSize: sub.Population,
			PlannedP:       sub.P,
		}
	}
	for k, part := range parts {
		if part == nil || part.Plan == nil {
			return nil, fmt.Errorf("core: merge: part %d is nil or planless", k)
		}
		if got := planFingerprint(part.Plan); got != want {
			return nil, fmt.Errorf("core: merge: part %d plan fingerprint %016x, want %016x", k, got, want)
		}
		if part.Partial {
			return nil, fmt.Errorf("core: merge: part %d is a partial (interrupted) result", k)
		}
		if len(part.Estimates) != len(plan.Subpops) {
			return nil, fmt.Errorf("core: merge: part %d has %d estimates for a %d-stratum plan", k, len(part.Estimates), len(plan.Subpops))
		}
		ranges := part.Ranges
		if ranges == nil {
			ranges = make([]DrawRange, len(plan.Subpops))
			for i, sub := range plan.Subpops {
				ranges[i] = DrawRange{From: 0, To: sub.SampleSize}
			}
		}
		if len(ranges) != len(plan.Subpops) {
			return nil, fmt.Errorf("core: merge: part %d covers %d strata of a %d-stratum plan", k, len(ranges), len(plan.Subpops))
		}
		quarantinedPer := make([]int64, len(plan.Subpops))
		for _, q := range part.Quarantined {
			if q.Stratum < 0 || q.Stratum >= len(plan.Subpops) {
				return nil, fmt.Errorf("core: merge: part %d quarantined a fault in stratum %d of a %d-stratum plan", k, q.Stratum, len(plan.Subpops))
			}
			quarantinedPer[q.Stratum]++
		}
		for i, r := range ranges {
			if r.From != cursors[i] {
				return nil, fmt.Errorf("core: merge: stratum %d: part %d starts at draw %d, but only [0, %d) is merged — parts must arrive in draw order with no gaps",
					i, k, r.From, cursors[i])
			}
			if r.To > plan.Subpops[i].SampleSize {
				return nil, fmt.Errorf("core: merge: stratum %d: part %d ends at draw %d beyond the planned %d", i, k, r.To, plan.Subpops[i].SampleSize)
			}
			est := part.Estimates[i]
			if est.SampleSize+quarantinedPer[i] != r.Len() {
				return nil, fmt.Errorf("core: merge: stratum %d: part %d tallied %d draws (+%d quarantined) for a %d-draw window",
					i, k, est.SampleSize, quarantinedPer[i], r.Len())
			}
			cursors[i] = r.To
			merged.Estimates[i].Successes += est.Successes
			merged.Estimates[i].SampleSize += est.SampleSize
		}
		for l, pl := range part.LayerSlices {
			if merged.LayerSlices == nil {
				merged.LayerSlices = make(map[int]stats.ProportionEstimate)
			}
			agg, ok := merged.LayerSlices[l]
			if !ok {
				agg = stats.ProportionEstimate{
					PopulationSize: pl.PopulationSize,
					PlannedP:       pl.PlannedP,
				}
			}
			agg.SampleSize += pl.SampleSize
			agg.Successes += pl.Successes
			merged.LayerSlices[l] = agg
		}
		merged.Quarantined = append(merged.Quarantined, part.Quarantined...)
	}
	for i, c := range cursors {
		if c != plan.Subpops[i].SampleSize {
			return nil, fmt.Errorf("core: merge: stratum %d: parts cover only [0, %d) of %d planned draws", i, c, plan.Subpops[i].SampleSize)
		}
	}
	if len(merged.Quarantined) > 0 {
		sort.Slice(merged.Quarantined, func(i, j int) bool {
			if merged.Quarantined[i].Stratum != merged.Quarantined[j].Stratum {
				return merged.Quarantined[i].Stratum < merged.Quarantined[j].Stratum
			}
			return merged.Quarantined[i].Index < merged.Quarantined[j].Index
		})
	} else {
		merged.Quarantined = nil
	}
	return merged, nil
}

// SplitPlan cuts every stratum of a plan into n contiguous draw windows
// whose sizes differ by at most one draw, returning one
// WithDrawRanges vector per part. Executing each part and merging with
// MergeRangeResults reproduces the full campaign bit-identically. n
// must be >= 1; parts may receive empty windows on strata smaller than
// n.
func SplitPlan(plan *Plan, n int) ([][]DrawRange, error) {
	if plan == nil {
		return nil, fmt.Errorf("core: split: nil plan")
	}
	if n < 1 {
		return nil, fmt.Errorf("core: split: %d parts", n)
	}
	parts := make([][]DrawRange, n)
	for k := range parts {
		parts[k] = make([]DrawRange, len(plan.Subpops))
	}
	for i, sub := range plan.Subpops {
		total := sub.SampleSize
		for k := 0; k < n; k++ {
			from := total * int64(k) / int64(n)
			to := total * int64(k+1) / int64(n)
			parts[k][i] = DrawRange{From: from, To: to}
		}
	}
	return parts, nil
}
