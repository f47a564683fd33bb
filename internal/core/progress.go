package core

import (
	"sync"
	"time"

	"cnnsfi/internal/evalstats"
)

// Progress is one streaming status event of a running campaign. Events
// are emitted by the Engine from its dispatcher goroutine — never
// concurrently — each time at least one shard-grid spacing of injections
// (shardGrid: at most 4,096, and at most 1/32 of the plan) has been
// tallied since the last event, and once more when the campaign ends
// (Final). All counts refer to *tallied*
// work: the contiguous per-stratum prefixes that have been merged into
// the running result, i.e. exactly what a checkpoint written at that
// instant would contain.
type Progress struct {
	// Done is the number of injections tallied so far, campaign-wide.
	Done int64
	// Planned is the campaign total (Plan.TotalInjections). Done stays
	// below Planned when the run is cancelled.
	Planned int64
	// Critical is the running critical-fault tally across all strata.
	Critical int64
	// Stratum indexes the stratum (Plan.Subpops) whose prefix advanced
	// most recently; -1 before any work is tallied.
	Stratum int
	// StratumDone / StratumPlanned are that stratum's tallied and
	// planned draw counts.
	StratumDone, StratumPlanned int64
	// Rate is injections per second, measured over work evaluated by
	// this Execute call (checkpoint-restored tallies are excluded).
	Rate float64
	// Elapsed is the wall-clock time since Execute started.
	Elapsed time.Duration
	// Final marks the last event of the run (emitted on completion and
	// cancellation alike).
	Final bool
	// Retries counts failed experiment attempts that were re-run under
	// supervision; Quarantined counts draws excluded from the tally
	// after exhausting their retry budget. Done includes quarantined
	// draws — their position in the sample is consumed even though they
	// carry no verdict. Both stay zero on unsupervised campaigns.
	Retries     int64
	Quarantined int64
	// AbandonedLanes counts the watchdog-abandoned experiment lanes this
	// campaign has accumulated in its tallied prefix — each is one
	// goroutine a timed-out experiment left behind (see
	// WatchdogAbandonedLanes for the live process-wide gauge). Unlike
	// the gauge, this counter never decreases: it measures how much the
	// watchdog had to abandon, per campaign, so a coordinator can
	// surface per-member abandonment in its merged warnings. Zero on
	// unsupervised campaigns.
	AbandonedLanes int64
	// Eval breaks down how the evaluator resolved this campaign's
	// experiments, when the evaluator implements StatsReporter (zero
	// otherwise). The monotone counters (Skipped, Evaluated, EarlyExits)
	// are deltas since Execute started, so work from earlier campaigns
	// or checkpoint-restored runs is excluded — but Eval.ArenaBytes is a
	// level, not a delta: it reports the scratch storage currently
	// retained by the evaluator and its clones, which persists across
	// campaigns by design (EvalStats.Sub carries it through unchanged).
	// Non-final events may lag Done slightly (the counters advance on
	// worker goroutines as experiments run, while Done advances on
	// in-order merge); the Final event is exact.
	Eval EvalStats
}

// EvalStats is the evaluator experiment breakdown (masked skips, full
// evaluations, SDC early exits, arena bytes); see evalstats.EvalStats
// for field documentation. It is defined in the leaf package
// internal/evalstats so evaluator substrates can implement
// StatsReporter without importing the engine.
type EvalStats = evalstats.EvalStats

// StatsReporter is an optional Evaluator extension: evaluators that
// track EvalStats expose them here and the Engine surfaces them in
// Progress.Eval. Both the inference injector and the oracle implement
// it.
type StatsReporter = evalstats.Reporter

// ProgressSink consumes streaming Progress events. The Engine calls the
// sink synchronously from its dispatcher goroutine, so implementations
// need no locking but must return promptly — a slow sink stalls shard
// hand-off. A sink may cancel the campaign's context; the engine then
// winds down at the next shard boundary. Sinks that cannot guarantee
// promptness (network writers, UIs) should be wrapped with AsyncSink.
type ProgressSink func(Progress)

// AsyncSink decouples a slow ProgressSink from the engine's dispatcher:
// the returned sink enqueues events onto a buffered channel and a
// dedicated goroutine drains them into sink, so the dispatcher never
// blocks on the consumer. buf is the channel capacity (values < 1 are
// treated as 1).
//
// Drop policy: when the buffer is full, non-final events are silently
// dropped — progress events are cumulative snapshots, so a later event
// supersedes anything dropped before it. The Final event is never
// dropped: the enqueue blocks until buffer space frees up, which is
// bounded by the consumer draining at its own pace.
//
// The returned stop function closes the channel and blocks until every
// buffered event has been delivered; call it after Execute returns (the
// engine never emits after Execute, and enqueueing after stop would
// panic). stop is idempotent.
func AsyncSink(sink ProgressSink, buf int) (ProgressSink, func()) {
	if buf < 1 {
		buf = 1
	}
	ch := make(chan Progress, buf)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for p := range ch {
			sink(p)
		}
	}()
	wrapped := func(p Progress) {
		if p.Final {
			ch <- p // finals are never dropped; block until space frees
			return
		}
		select {
		case ch <- p:
		default: // buffer full: drop — a later snapshot supersedes this one
		}
	}
	var once sync.Once
	stop := func() {
		once.Do(func() {
			close(ch)
			<-drained
		})
	}
	return wrapped, stop
}
