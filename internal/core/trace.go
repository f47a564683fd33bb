package core

import (
	"time"
)

// TraceKind discriminates the structured engine events emitted through
// a TraceSink (WithTrace). The kinds mirror the lifecycle of one
// Execute call: a campaign starts, strata start as their first shard is
// dispatched, evaluated shards complete on workers, strata end when
// their prefix is fully merged, checkpoints are written, and the campaign ends exactly once.
type TraceKind uint8

// Engine trace event kinds, in lifecycle order.
const (
	// TraceCampaignStart opens a campaign: seed, plan fingerprint,
	// worker count, planned injections, and the checkpoint-restored
	// prefix (Restored > 0 on resume).
	TraceCampaignStart TraceKind = iota
	// TraceStratumStart marks a stratum's first shard hand-off.
	TraceStratumStart
	// TraceShardDone records one evaluated shard: which worker ran it,
	// how many injections it held, and its evaluation wall time. This is
	// the worker-assignment record — shard→worker mapping is scheduling-
	// dependent and deliberately outside the determinism guarantee.
	TraceShardDone
	// TraceExperimentRetry records one experiment that failed (panic or
	// watchdog timeout) and then succeeded on a retry: the fault
	// identity, how many attempts failed first, and the last failure.
	// Emitted at merge time, in draw order within each stratum.
	TraceExperimentRetry
	// TraceExperimentQuarantined records one experiment excluded from
	// the tally after exhausting its retry budget. The stratum's
	// effective sample size shrinks by one and its achieved margin is
	// recomputed over the reduced n.
	TraceExperimentQuarantined
	// TraceStratumEnd marks a stratum's tally becoming final for this
	// run: every shard merged in draw order.
	TraceStratumEnd
	// TraceCheckpoint records a successful checkpoint write.
	TraceCheckpoint
	// TraceCampaignEnd closes the campaign with the final tallies; it is
	// emitted on completion and cancellation alike (Partial
	// distinguishes the latter).
	TraceCampaignEnd
)

// String names the trace kind (the JSONL schema uses these names).
func (k TraceKind) String() string {
	switch k {
	case TraceCampaignStart:
		return "campaign_start"
	case TraceStratumStart:
		return "stratum_start"
	case TraceShardDone:
		return "shard_done"
	case TraceExperimentRetry:
		return "experiment_retry"
	case TraceExperimentQuarantined:
		return "experiment_quarantined"
	case TraceStratumEnd:
		return "stratum_end"
	case TraceCheckpoint:
		return "checkpoint"
	case TraceCampaignEnd:
		return "campaign_end"
	default:
		return "unknown"
	}
}

// TraceEvent is one structured engine event. It is a flat union: every
// kind fills the identity fields (Kind, Time, Elapsed) plus the field
// groups documented per kind below; unrelated fields are zero (index
// fields use -1 as their "not set" value so index 0 stays unambiguous).
//
//	TraceCampaignStart  Seed, Fingerprint, Workers, Planned, Restored, Strata
//	TraceStratumStart   Stratum, Layer, Bit, StratumPlanned, Done (restored prefix)
//	TraceShardDone      Stratum, Shard, Worker, Injections (shard size), Dur
//	TraceExperimentRetry        Stratum, Draw, Fault, Attempts (failed), Err
//	TraceExperimentQuarantined  Stratum, Draw, Fault, Attempts, Err
//	TraceStratumEnd     Stratum, Layer, Bit, StratumPlanned, Done, Critical,
//	                    Dur (stratum wall time), Eval (campaign-wide snapshot)
//	TraceCheckpoint     Path, Done, Critical
//	TraceCampaignEnd    Done, Critical, Planned, Rate, Partial, Retries,
//	                    Quarantined, Eval
type TraceEvent struct {
	// Kind discriminates the event.
	Kind TraceKind
	// Time is the wall-clock instant the event was emitted.
	Time time.Time
	// Elapsed is the time since Execute started.
	Elapsed time.Duration

	// Seed and Fingerprint bind the trace to one exact campaign: the
	// sampling seed and the plan fingerprint (the same value the
	// checkpoint schema uses to reject mismatched resumes).
	Seed        int64
	Fingerprint uint64
	// Workers is the resolved evaluation worker count.
	Workers int
	// Planned is Plan.TotalInjections; Restored is the injection prefix
	// loaded from a checkpoint (0 on a fresh run); Strata is the number
	// of subpopulations.
	Planned  int64
	Restored int64
	Strata   int

	// Stratum indexes Plan.Subpops (-1 for campaign-level events);
	// Layer/Bit are that stratum's identity and StratumPlanned its
	// planned sample size.
	Stratum        int
	Layer          int
	Bit            int
	StratumPlanned int64

	// Shard is the run-local shard index and Worker the worker slot
	// that evaluated it (-1 for non-shard events).
	Shard  int
	Worker int

	// Done/Critical are tallied injections and criticals — stratum-local
	// for stratum events, campaign-wide for checkpoint/campaign events.
	// For TraceShardDone, Injections is the shard's draw count.
	Done       int64
	Critical   int64
	Injections int64

	// Dur is the shard evaluation wall time (TraceShardDone) or the
	// stratum wall time from first dispatch to final merge
	// (TraceStratumEnd).
	Dur time.Duration

	// Draw is the failing experiment's index within its stratum's drawn
	// sample (experiment_retry / experiment_quarantined); Fault its
	// rendered identity ("" when the failure preceded decoding);
	// Attempts the failed-attempt count and Err the last failure,
	// rendered.
	Draw     int64
	Fault    string
	Attempts int
	Err      string

	// Retries / Quarantined are the campaign-wide supervision tallies
	// (TraceCampaignEnd).
	Retries     int64
	Quarantined int64

	// Rate is injections per second over this Execute call.
	Rate float64
	// Partial marks a cancelled campaign's end event.
	Partial bool
	// Path is the checkpoint file path.
	Path string

	// Eval is the evaluator's campaign-delta experiment breakdown at
	// emission time (zero when the evaluator is not a StatsReporter).
	// Mid-campaign snapshots may lag the merge counters slightly, like
	// Progress.Eval; the TraceCampaignEnd snapshot is exact.
	Eval EvalStats
}

// TraceSink consumes structured engine events. Like ProgressSink it is
// called synchronously from the dispatcher goroutine — never
// concurrently — so implementations need no locking but must return
// promptly: buffer asynchronously and drop rather than block (the
// internal/telemetry Tracer does exactly that, counting drops). A
// TraceSink must never influence the campaign: trace events are
// observability only, and the Result stays bit-identical with or
// without one installed.
type TraceSink func(TraceEvent)

// WithTrace installs a structured trace sink; see TraceEvent for the
// event vocabulary. Tracing is independent of WithProgress — progress
// events summarize merged totals on an injection interval, trace events
// record the engine's structural decisions (shard scheduling, stratum
// boundaries, checkpoints).
func WithTrace(sink TraceSink) Option { return func(e *Engine) { e.trace = sink } }

// traceState is the per-Execute bookkeeping behind trace emission,
// allocated only when a sink is installed so untraced campaigns pay a
// single nil check per emission site.
type traceState struct {
	started []bool
	ended   []bool
	t0      []time.Time
}

// emitTrace stamps and delivers one event; id fields default to "not
// set" and are overridden by the caller through mutate.
func (x *execution) emitTrace(kind TraceKind, mutate func(*TraceEvent)) {
	if x.trace == nil {
		return
	}
	ev := TraceEvent{
		Kind:    kind,
		Time:    time.Now(),
		Elapsed: time.Since(x.start),
		Stratum: -1,
		Layer:   -1,
		Bit:     -1,
		Shard:   -1,
		Worker:  -1,
	}
	if mutate != nil {
		mutate(&ev)
	}
	x.trace(ev)
}

// evalSnapshot returns the campaign-delta EvalStats (zero without a
// reporting evaluator).
func (x *execution) evalSnapshot() EvalStats {
	if x.reporter == nil {
		return EvalStats{}
	}
	return x.reporter.EvalStats().Sub(x.statsBase)
}

// traceStratumStart emits the stratum's begin event on its first shard
// hand-off.
func (x *execution) traceStratumStart(i int) {
	if x.trace == nil || x.tstate.started[i] {
		return
	}
	x.tstate.started[i] = true
	x.tstate.t0[i] = time.Now()
	sub := x.plan.Subpops[i]
	x.emitTrace(TraceStratumStart, func(ev *TraceEvent) {
		ev.Stratum = i
		ev.Layer = sub.Layer
		ev.Bit = sub.Bit
		ev.StratumPlanned = sub.SampleSize
		ev.Done = x.strata[i].cursor
	})
}

// traceStratumEnd emits the stratum's end event once its tally is final
// for this run (all shards merged).
func (x *execution) traceStratumEnd(i int) {
	if x.trace == nil || !x.tstate.started[i] || x.tstate.ended[i] {
		return
	}
	st := x.strata[i]
	if _, to := x.rangeBounds(i); st.cursor < to {
		return
	}
	x.tstate.ended[i] = true
	sub := x.plan.Subpops[i]
	x.emitTrace(TraceStratumEnd, func(ev *TraceEvent) {
		ev.Stratum = i
		ev.Layer = sub.Layer
		ev.Bit = sub.Bit
		ev.StratumPlanned = sub.SampleSize
		ev.Done = st.cursor
		ev.Critical = st.successes
		ev.Dur = time.Since(x.tstate.t0[i])
		ev.Eval = x.evalSnapshot()
	})
}
