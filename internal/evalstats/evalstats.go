// Package evalstats defines the evaluation-statistics surface shared by
// the campaign engine (internal/core) and every evaluator substrate
// (internal/inject, internal/oracle). It sits below all of them in the
// import graph so substrates can implement the Reporter interface
// without importing the engine; core re-exports the names, and most
// code should refer to core.EvalStats / core.StatsReporter. The
// Evaluator and WorkerCloner interfaces live here for the same reason:
// a substrate's CloneForWorker returns an Evaluator, and the oracle
// cannot import the engine whose white-box tests import the oracle.
package evalstats

import "cnnsfi/internal/faultmodel"

// EvalStats summarizes how an evaluator spent its experiments. It is
// the observability half of the evaluation fast path: campaigns read it
// through core.Progress.Eval, tools through the sfi facade.
type EvalStats struct {
	// Skipped counts experiments classified without any inference — the
	// masked-fault short-circuit (a stuck-at fault whose target bit
	// already holds the stuck value, provably Non-critical).
	Skipped int64
	// Evaluated counts experiments that ran the evaluation loop.
	Evaluated int64
	// EarlyExits counts evaluated experiments that terminated before
	// scanning the whole evaluation set (the SDC first-mismatch exit).
	// Always ≤ Evaluated.
	EarlyExits int64
	// ArenaBytes is the scratch-arena storage retained across the
	// evaluator and all its worker clones, in bytes — the steady-state
	// memory cost of allocation-free evaluation (0 for evaluators
	// without arenas).
	ArenaBytes int64
}

// Experiments returns the total number of experiments the stats cover.
func (s EvalStats) Experiments() int64 { return s.Skipped + s.Evaluated }

// Sub returns the campaign-local view of s against a baseline snapshot
// taken when the campaign started: the monotone counters are
// differenced, while ArenaBytes — a level, not a flow — is carried
// as-is (arena storage persists across campaigns by design).
func (s EvalStats) Sub(base EvalStats) EvalStats {
	return EvalStats{
		Skipped:    s.Skipped - base.Skipped,
		Evaluated:  s.Evaluated - base.Evaluated,
		EarlyExits: s.EarlyExits - base.EarlyExits,
		ArenaBytes: s.ArenaBytes,
	}
}

// Reporter is an optional evaluator extension: evaluators that track
// EvalStats expose them here and the campaign engine surfaces them in
// progress events. Both the inference injector and the oracle implement
// it. EvalStats must be safe to call concurrently with evaluation
// (counter reads are atomic; mid-campaign snapshots may be slightly
// stale).
type Reporter interface {
	EvalStats() EvalStats
}

// Evaluator classifies a single fault as Critical or Non-critical. It is
// implemented by the inference-based injectors (package inject) and by
// the full-scale simulated substrate (package oracle); core re-exports
// it as core.Evaluator.
//
// Concurrency rule: the engine at one worker never calls IsCritical
// concurrently, so any Evaluator works there. At more workers the
// engine shares the evaluator across workers — IsCritical must then be
// safe for concurrent use (the activation injector is) — unless the
// evaluator also implements WorkerCloner, in which case each worker
// beyond the first gets its own clone (the weight injector, which
// mutates live network weights, and the oracle, whose clones keep
// private experiment counters, do this).
type Evaluator interface {
	// IsCritical runs one fault-injection experiment. The verdict must
	// be a pure function of the fault and the evaluator's golden state:
	// the campaign runners evaluate samples in arbitrary shard order.
	IsCritical(f faultmodel.Fault) bool
	// Space returns the fault universe the evaluator covers.
	Space() faultmodel.Space
}

// WorkerCloner is implemented by evaluators that produce per-worker
// copies: either because IsCritical is not safe for concurrent use
// (the inference-based inject.Injector, whose experiments mutate live
// network weights) or because a private copy is cheaper to run
// concurrently (the oracle, whose clones count into their own
// cache-line-padded counter slots). The campaign engine gives every
// worker beyond the first its own clone. Evaluators that do not
// implement WorkerCloner are shared across workers and must have a
// concurrency-safe IsCritical (see Evaluator).
type WorkerCloner interface {
	Evaluator
	// CloneForWorker returns an evaluator over the same fault space
	// whose IsCritical may run concurrently with the receiver's and
	// with other clones'.
	CloneForWorker() Evaluator
}
