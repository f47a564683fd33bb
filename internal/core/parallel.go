package core

import (
	"context"
	"fmt"
	"os"

	"cnnsfi/internal/evalstats"
)

// WorkerCloner is an Evaluator that supplies per-worker clones: the
// campaign Engine gives every worker beyond the first its own clone.
// The inference-based inject.Injector needs this because its
// experiments mutate live network weights; the oracle uses it so each
// worker counts into its own counter slot. See evalstats.WorkerCloner,
// where it is defined so that substrates need not import the engine.
type WorkerCloner = evalstats.WorkerCloner

// validateDecode is the process-wide default for the defensive
// validation of every fault decoded in the shard-evaluation path
// (decodeFaultChecked instead of decodeFault). It is off by default —
// the decode arithmetic is pinned by tests — and can be switched on for
// production campaigns by setting the SFI_VALIDATE_DECODE environment
// variable to any non-empty value.
var validateDecode = os.Getenv("SFI_VALIDATE_DECODE") != ""

// RunParallel executes a plan like Run, spreading the evaluation over up
// to workers goroutines (0 selects GOMAXPROCS).
//
// Determinism guarantee: for the same seed, the Result is bit-identical
// to Run's, regardless of worker count — neither the draw (one
// generator in plan order, cut on the plan's shard grid) nor the tally
// (integer sums merged in draw order) depends on evaluation
// interleaving.
//
// Work is sharded *within* strata, not just across them: a
// single-stratum network-wise plan saturates all workers just like a
// 640-stratum data-aware plan.
//
// Concurrency contract: an evaluator implementing WorkerCloner (the
// inference-based inject.Injector, the oracle substrate) is cloned once
// per extra worker; any other evaluator (the activation injector) is
// shared and must be safe for concurrent IsCritical calls.
//
// RunParallel is a thin compatibility wrapper over the campaign Engine;
// use NewEngine directly for cancellation, streaming progress, or
// checkpoint/resume.
func RunParallel(ev Evaluator, plan *Plan, seed int64, workers int) *Result {
	res, err := NewEngine(WithWorkers(workers)).Execute(context.Background(), ev, plan, seed)
	if err != nil {
		// Unreachable: with no cancellable context or checkpoint
		// configured, Execute has no error paths.
		panic(fmt.Sprintf("core: RunParallel: %v", err))
	}
	return res
}
