package core

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"cnnsfi/internal/faultmodel"
	"cnnsfi/internal/stats"
)

// Engine is the unified campaign executor: one pipeline
// (draw → decode → evaluate → tally) behind a functional-options
// configuration, with the operational affordances long campaigns need —
// cooperative cancellation through context.Context, streaming progress
// events, checkpoint/resume, and margin-based early stop. Run and
// RunParallel are thin compatibility wrappers over it.
//
// Determinism guarantee (the anchor every feature preserves): every
// stratum's sample is drawn up-front from one seeded generator in plan
// order, the drawn samples are split into contiguous shards, and
// per-shard tallies are merged strictly in draw order — so a completed
// campaign's Result is a pure function of (plan, seed), bit-identical
// across worker counts and across interrupt/resume cycles.
//
// An Engine is immutable after NewEngine and safe to reuse across
// Execute calls (each call keeps its own run state), but two concurrent
// Execute calls sharing one checkpoint path would race on the file.
type Engine struct {
	workers         int
	progress        ProgressSink
	progressEvery   int64
	checkpointPath  string
	checkpointEvery int64
	resume          bool
	earlyStop       bool
	earlyStopTarget float64
	validate        bool
	grouped         bool
	ranges          []DrawRange
	trace           TraceSink

	// Supervision (see supervise.go): expTimeout > 0 or maxRetries >= 0
	// enables per-experiment panic isolation, the watchdog, bounded
	// retries, and quarantine. maxRetries < 0 (the default) leaves the
	// classic unsupervised hot path untouched.
	expTimeout time.Duration
	maxRetries int
	warn       func(msg string)
}

// Option configures an Engine (functional options).
type Option func(*Engine)

// WithWorkers sets the evaluation worker count. 0 (the default) selects
// GOMAXPROCS; 1 evaluates serially in draw order, exactly like the
// classic Run.
func WithWorkers(n int) Option { return func(e *Engine) { e.workers = n } }

// WithProgress installs a streaming progress sink (see ProgressSink).
func WithProgress(sink ProgressSink) Option { return func(e *Engine) { e.progress = sink } }

// WithProgressInterval sets how many tallied injections elapse between
// progress events (default 10,000). Values < 1 are treated as 1.
func WithProgressInterval(n int64) Option { return func(e *Engine) { e.progressEvery = n } }

// WithCheckpoint enables periodic campaign checkpoints at path: the
// per-stratum cursor + tallies + seed are serialized so an interrupted
// campaign can resume (WithResume) and produce a Result bit-identical
// to an uninterrupted run at the same seed. A checkpoint is also
// written when the context is cancelled, and the file is removed when
// the campaign completes.
func WithCheckpoint(path string) Option { return func(e *Engine) { e.checkpointPath = path } }

// WithCheckpointInterval sets how many tallied injections elapse
// between periodic checkpoint writes (default 100,000). Values < 1 are
// treated as 1.
func WithCheckpointInterval(n int64) Option { return func(e *Engine) { e.checkpointEvery = n } }

// WithResume makes Execute load the WithCheckpoint file (when it
// exists) before starting, skipping the already-tallied prefix of every
// stratum. Execute fails if the checkpoint belongs to a different plan
// or seed; a missing file starts a fresh campaign.
func WithResume() Option { return func(e *Engine) { e.resume = true } }

// WithEarlyStop enables margin-based early stopping: a stratum halts as
// soon as its achieved margin — the Eq. 3 inversion evaluated at the
// observed proportion (stats.ObservedMargin) — reaches target, with the
// actual sample size reported in the Result's Estimates alongside the
// planned one in Plan.Subpops. target 0 uses the plan's requested
// ErrorMargin. At least earlyStopMinSample draws are always evaluated
// per stratum so the normal approximation behind Eq. 3 is defensible.
//
// The stop rule is a pure function of each stratum's tallied prefix at
// fixed shard boundaries, so early-stopped results stay deterministic
// for a given (plan, seed, worker count).
func WithEarlyStop(target float64) Option {
	return func(e *Engine) { e.earlyStop = true; e.earlyStopTarget = target }
}

// WithDecodeValidation switches the defensive fault-decode cross-check
// on or off explicitly, overriding the SFI_VALIDATE_DECODE environment
// gate (which remains the process-wide default fallback).
func WithDecodeValidation(on bool) Option { return func(e *Engine) { e.validate = on } }

// WithGroupedEvaluation makes each worker evaluate its shard's draws
// grouped by fault location — ordered by (layer, param, bit, model) —
// so consecutive experiments share the same graph invalidation point
// and weight word, which keeps the evaluator's suffix path and caches
// hot (most effective on the inference substrate, where a fault's layer
// decides how much of the network is re-executed). Tallies are still
// merged strictly in draw order, and every experiment restores its
// fault before the next begins, so verdicts are independent of
// evaluation order: Result stays a pure function of (plan, seed),
// bit-identical with grouping on or off.
//
// Off by default: grouping decodes and sorts a shard up front, which is
// pure overhead for O(ns)-verdict evaluators like the oracle.
// Supervised campaigns (WithExperimentTimeout / WithMaxRetries) ignore
// the flag — the supervision lane processes draws in order.
func WithGroupedEvaluation(on bool) Option { return func(e *Engine) { e.grouped = on } }

// earlyStopMinSample is the minimum evaluated sample size before the
// early-stop rule may fire: below ~30 draws the normal approximation
// underlying the Eq. 3 margin is not meaningful (a stratum whose first
// few draws happen to be benign would otherwise stop instantly at an
// observed margin of zero).
const earlyStopMinSample = 30

// NewEngine builds an engine; defaults are GOMAXPROCS workers, no
// progress sink, no checkpointing, no early stop, and decode validation
// taken from the SFI_VALIDATE_DECODE environment variable.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{
		progressEvery:   10_000,
		checkpointEvery: 100_000,
		validate:        validateDecode,
		maxRetries:      -1, // supervision off
	}
	for _, o := range opts {
		o(e)
	}
	if e.progressEvery < 1 {
		e.progressEvery = 1
	}
	if e.checkpointEvery < 1 {
		e.checkpointEvery = 1
	}
	return e
}

// stratumState is one stratum's running tally: the contiguous prefix of
// its drawn sample that has been evaluated and merged (cursor draws,
// successes criticals), plus the per-layer slices for global strata and
// the early-stop flag.
type stratumState struct {
	cursor    int64
	successes int64
	perLayer  map[int]*stats.ProportionEstimate
	stopped   bool
	// quarantined counts draws within cursor that were excluded from
	// the tally by supervision; the stratum's effective sample size is
	// cursor - quarantined.
	quarantined int64
}

// execution is the per-Execute run state (the Engine itself stays
// immutable and reusable).
type execution struct {
	engine  *Engine
	plan    *Plan
	space   faultmodel.Space
	seed    int64
	start   time.Time
	workers int

	strata []*stratumState
	shards []*shard
	order  [][]int // per stratum: indices into shards, in draw order
	pos    []int   // per stratum: next order entry awaiting merge
	done   []bool  // per shard: evaluated

	// ranges is the WithDrawRanges vector (nil for a full run); cursors
	// and shard offsets stay absolute draw positions either way, so a
	// ranged stratum's cursor starts at ranges[i].From.
	ranges []DrawRange

	merged      int64 // merged injections, campaign-wide (incl. restored + quarantined)
	restored    int64 // merged injections loaded from the checkpoint
	critical    int64 // tallied criticals, campaign-wide
	abandoned   int64 // watchdog-abandoned lanes accumulated by merged shards
	lastStratum int   // stratum whose prefix advanced most recently

	// Supervision bookkeeping (nil/zero when supervision is off): the
	// shared supervisor, every quarantined fault in merge order (sorted
	// into Result.Quarantined at assemble), and the retry tally.
	sup         *supervisor
	quarantined []QuarantinedFault
	retries     int64

	sinceProgress   int64
	sinceCheckpoint int64

	// reporter/statsBase surface the evaluator's EvalStats in Progress:
	// the baseline snapshot taken when Execute started is subtracted so
	// events report this campaign's work only.
	reporter  StatsReporter
	statsBase EvalStats

	// trace/tstate drive structured event emission (WithTrace); both
	// stay nil/zero when no sink is installed.
	trace  TraceSink
	tstate traceState
}

// Execute runs the plan against the evaluator. It returns a complete
// Result and nil error on success; on context cancellation it returns
// the partial Result tallied so far (Result.Partial set) together with
// ctx.Err(), after writing a final checkpoint when one is configured.
// All worker goroutines are joined before Execute returns, whatever the
// outcome.
//
// The evaluator contract matches the classic runners: evaluators
// implementing WorkerCloner (the injector, the oracle) get one clone
// per worker beyond the first; any other evaluator is shared and must
// be safe for concurrent IsCritical calls (irrelevant at one worker).
func (e *Engine) Execute(ctx context.Context, ev Evaluator, plan *Plan, seed int64) (*Result, error) {
	if plan == nil {
		return nil, fmt.Errorf("core: engine: nil plan")
	}
	if e.earlyStop {
		if err := plan.Config.Validate(); err != nil {
			return nil, fmt.Errorf("core: engine: early stop needs a valid plan config: %w", err)
		}
		if e.earlyStopTarget < 0 || e.earlyStopTarget >= 1 {
			return nil, fmt.Errorf("core: engine: early-stop target %v outside [0, 1)", e.earlyStopTarget)
		}
	}
	if e.expTimeout < 0 {
		return nil, fmt.Errorf("core: engine: negative experiment timeout %v", e.expTimeout)
	}
	if err := validateRanges(e.ranges, plan); err != nil {
		return nil, err
	}
	workers := e.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	x := &execution{
		engine:      e,
		plan:        plan,
		space:       ev.Space(),
		seed:        seed,
		start:       time.Now(),
		workers:     workers,
		strata:      make([]*stratumState, len(plan.Subpops)),
		ranges:      e.ranges,
		lastStratum: -1,
	}
	if e.supervised() {
		x.sup = newSupervisor(e, ev)
	}
	if r, ok := ev.(StatsReporter); ok {
		x.reporter = r
		x.statsBase = r.EvalStats()
	}
	for i, sub := range plan.Subpops {
		st := &stratumState{}
		if sub.Layer < 0 {
			st.perLayer = make(map[int]*stats.ProportionEstimate)
		}
		// Ranged runs tally the [from, to) window only: the cursor is an
		// absolute draw position and starts at the window's left edge.
		st.cursor, _ = x.rangeBounds(i)
		x.strata[i] = st
	}
	if e.checkpointPath != "" && e.resume {
		if err := x.loadCheckpoint(e.checkpointPath); err != nil {
			return nil, err
		}
	}

	// The determinism anchor: every stratum's sample drawn up-front in
	// plan order, then sharded exactly like a fresh run so resumed
	// campaigns see the same boundaries (cursors always sit on shard
	// boundaries of the worker count that wrote the checkpoint).
	samples := drawAll(plan, seed)
	for _, s := range makeShards(plan, samples, workers, x.ranges) {
		st := x.strata[s.stratum]
		end := s.start + int64(len(s.idx))
		if st.stopped || end <= st.cursor {
			continue // fully covered by the checkpoint
		}
		if s.start < st.cursor { // partially covered: trim the tallied head
			s.idx = s.idx[st.cursor-s.start:]
			s.start = st.cursor
		}
		x.shards = append(x.shards, s)
	}
	x.order = make([][]int, len(plan.Subpops))
	for k, s := range x.shards {
		x.order[s.stratum] = append(x.order[s.stratum], k)
	}
	x.pos = make([]int, len(plan.Subpops))
	x.done = make([]bool, len(x.shards))
	if e.trace != nil {
		x.trace = e.trace
		x.tstate = traceState{
			started: make([]bool, len(plan.Subpops)),
			ended:   make([]bool, len(plan.Subpops)),
			t0:      make([]time.Time, len(plan.Subpops)),
		}
		x.emitTrace(TraceCampaignStart, func(ev *TraceEvent) {
			ev.Seed = seed
			ev.Fingerprint = planFingerprint(plan)
			ev.Workers = workers
			ev.Planned = x.plannedInjections()
			ev.Restored = x.restored
			ev.Strata = len(plan.Subpops)
		})
	}

	// Per-worker evaluators: worker 0 keeps the original; the rest get
	// clones when the evaluator requires isolation.
	evals := make([]Evaluator, workers)
	for w := range evals {
		evals[w] = ev
		if w > 0 {
			if c, ok := ev.(WorkerCloner); ok {
				evals[w] = c.CloneForWorker()
			}
		}
	}

	type completion struct {
		shard     int
		evaluated bool
		worker    int
		dur       time.Duration // shard evaluation wall time
	}
	jobs := make(chan int)
	results := make(chan completion, len(x.shards)) // workers never block
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, ev Evaluator) {
			defer wg.Done()
			// Supervision enabled is the one branch per shard; disabled
			// campaigns stay on the classic evaluate hot path.
			var sw *supWorker
			if x.sup != nil {
				sw = &supWorker{sup: x.sup, ev: ev}
				defer sw.close()
			}
			for k := range jobs {
				// Cooperative cancellation, checked at shard boundaries:
				// a cancelled worker reports the shard back unevaluated.
				if ctx.Err() != nil {
					results <- completion{shard: k, worker: w}
					continue
				}
				t0 := time.Now()
				if sw != nil {
					sw.evaluateShard(x.shards[k], x.space, plan, e.validate)
				} else {
					x.shards[k].evaluate(ev, x.space, plan, e.validate, e.grouped)
				}
				results <- completion{shard: k, evaluated: true, worker: w, dur: time.Since(t0)}
			}
		}(w, evals[w])
	}

	// Dispatch loop: one goroutine owns all bookkeeping (prefix merge,
	// early stop, checkpoints, progress), so none of it needs locks.
	var runErr error
	aborted := false
	ctxDone := ctx.Done()
	next, inFlight := 0, 0
	skipStopped := func() {
		for next < len(x.shards) && x.strata[x.shards[next].stratum].stopped {
			next++
		}
	}
	skipStopped()
	for inFlight > 0 || (!aborted && next < len(x.shards)) {
		var jobCh chan int
		if !aborted && next < len(x.shards) {
			// select picks at random among ready cases, so ctx.Done alone
			// could lose to dispatch until every shard is handed out and
			// a cancelled campaign would come back complete.
			if ctx.Err() != nil {
				aborted = true
			} else {
				jobCh = jobs
			}
		}
		select {
		case jobCh <- next:
			x.traceStratumStart(x.shards[next].stratum)
			next++
			inFlight++
			skipStopped()
		case c := <-results:
			inFlight--
			if !c.evaluated {
				// A worker saw cancellation: the shard stays unmerged, so
				// the Result is partial whatever select picks next.
				aborted = true
			} else {
				if x.trace != nil {
					s := x.shards[c.shard]
					x.emitTrace(TraceShardDone, func(ev *TraceEvent) {
						ev.Stratum = s.stratum
						ev.Shard = c.shard
						ev.Worker = c.worker
						ev.Injections = int64(len(s.idx))
						ev.Dur = c.dur
					})
				}
				x.handleCompletion(c.shard)
				skipStopped()
				if !aborted {
					if err := x.housekeeping(); err != nil {
						runErr = err
						aborted = true
					}
				}
			}
		case <-ctxDone:
			aborted = true
			ctxDone = nil
		}
	}
	close(jobs)
	wg.Wait()

	res := x.assemble(aborted)
	if aborted {
		if e.checkpointPath != "" && runErr == nil {
			if runErr = x.writeCheckpoint(e.checkpointPath); runErr == nil {
				x.traceCheckpoint(e.checkpointPath)
			}
		}
		x.emitProgress(true)
		x.traceCampaignEnd(res)
		if runErr == nil {
			runErr = ctx.Err()
		}
		return res, runErr
	}
	if e.checkpointPath != "" {
		// Campaign complete: drop stale state, including the rotated
		// backup (see writeCheckpoint).
		os.Remove(e.checkpointPath)
		os.Remove(e.checkpointPath + checkpointBackupSuffix)
	}
	x.emitProgress(true)
	x.traceCampaignEnd(res)
	return res, nil
}

// traceCampaignEnd closes the trace with the final tallies; the Eval
// snapshot here is exact (all workers joined).
func (x *execution) traceCampaignEnd(res *Result) {
	x.emitTrace(TraceCampaignEnd, func(ev *TraceEvent) {
		ev.Done = x.merged
		ev.Critical = x.critical
		ev.Planned = x.plannedInjections()
		ev.Partial = res.Partial
		ev.EarlyStopped = len(res.EarlyStopped)
		ev.Retries = x.retries
		ev.Quarantined = int64(len(x.quarantined))
		ev.Eval = x.evalSnapshot()
		if secs := ev.Elapsed.Seconds(); secs > 0 {
			ev.Rate = float64(x.merged-x.restored) / secs
		}
	})
}

// handleCompletion records an evaluated shard and merges the stratum's
// contiguous completed prefix, in draw order, checking the early-stop
// rule at every merged boundary. Tallies of shards evaluated beyond an
// early-stop cut are discarded — the reported actual-n is always a
// deterministic prefix.
func (x *execution) handleCompletion(k int) {
	x.done[k] = true
	i := x.shards[k].stratum
	st := x.strata[i]
	for !st.stopped && x.pos[i] < len(x.order[i]) && x.done[x.order[i][x.pos[i]]] {
		x.mergeShard(x.shards[x.order[i][x.pos[i]]])
		x.pos[i]++
		x.checkEarlyStop(i)
	}
	x.traceStratumEnd(i)
}

// mergeShard folds one evaluated shard into its stratum's prefix tally.
// Quarantined draws advance the cursor (their positions are consumed)
// but never the success or per-layer tallies; retry/quarantine trace
// events are emitted here, in draw order, from the dispatcher.
func (x *execution) mergeShard(s *shard) {
	st := x.strata[s.stratum]
	st.cursor += int64(len(s.idx))
	st.successes += s.successes
	if s.retries > 0 {
		x.retries += s.retries
		for i := range s.retried {
			r := &s.retried[i]
			x.emitTrace(TraceExperimentRetry, func(ev *TraceEvent) {
				ev.Stratum = s.stratum
				ev.Draw = r.index
				ev.Fault = r.fault
				ev.Attempts = r.failures
				ev.Err = r.err
			})
		}
	}
	if len(s.quarantined) > 0 {
		st.quarantined += int64(len(s.quarantined))
		x.quarantined = append(x.quarantined, s.quarantined...)
		for i := range s.quarantined {
			q := &s.quarantined[i]
			x.warnf("quarantined after %d attempt(s): %s", q.Attempts, q.Err)
			x.emitTrace(TraceExperimentQuarantined, func(ev *TraceEvent) {
				ev.Stratum = q.Stratum
				ev.Draw = q.Index
				ev.Fault = q.Fault
				ev.Attempts = q.Attempts
				ev.Err = q.Err
			})
		}
	}
	for l, pl := range s.perLayer {
		agg := st.perLayer[l]
		if agg == nil {
			agg = &stats.ProportionEstimate{
				PopulationSize: pl.PopulationSize,
				PlannedP:       pl.PlannedP,
			}
			st.perLayer[l] = agg
		}
		agg.SampleSize += pl.SampleSize
		agg.Successes += pl.Successes
	}
	n := int64(len(s.idx))
	x.merged += n
	x.critical += s.successes
	x.abandoned += s.abandoned
	x.sinceProgress += n
	x.sinceCheckpoint += n
	x.lastStratum = s.stratum
}

// checkEarlyStop halts stratum i once the margin achieved by its tallied
// prefix (Eq. 3 inverted at the observed proportion) reaches the target.
func (x *execution) checkEarlyStop(i int) {
	e := x.engine
	if !e.earlyStop {
		return
	}
	st := x.strata[i]
	sub := x.plan.Subpops[i]
	from, to := x.rangeBounds(i)
	// eff is the effective sample size: quarantined draws carry no
	// verdict, so both the stop rule and the reported margin run over
	// the reduced n. A ranged run stops on its window-local prefix (the
	// stop rule stays a pure function of the window's tallied prefix at
	// fixed shard boundaries, so it is deterministic per range).
	eff := st.cursor - from - st.quarantined
	if st.stopped || eff < earlyStopMinSample || st.cursor >= to {
		return
	}
	target := e.earlyStopTarget
	if target == 0 {
		target = x.plan.Config.ErrorMargin
	}
	pHat := float64(st.successes) / float64(eff)
	if m := x.plan.Config.ObservedMargin(pHat, eff, sub.Population); m <= target {
		st.stopped = true
		x.emitTrace(TraceEarlyStop, func(ev *TraceEvent) {
			ev.Stratum = i
			ev.Done = eff
			ev.Critical = st.successes
			ev.Margin = m
		})
	}
}

// housekeeping emits due progress events and writes due checkpoints.
func (x *execution) housekeeping() error {
	e := x.engine
	if e.progress != nil && x.sinceProgress >= e.progressEvery {
		x.sinceProgress = 0
		x.emitProgress(false)
	}
	if e.checkpointPath != "" && x.sinceCheckpoint >= e.checkpointEvery {
		x.sinceCheckpoint = 0
		if err := x.writeCheckpoint(e.checkpointPath); err != nil {
			return err
		}
		x.traceCheckpoint(e.checkpointPath)
	}
	return nil
}

// traceCheckpoint records a successful checkpoint write.
func (x *execution) traceCheckpoint(path string) {
	x.emitTrace(TraceCheckpoint, func(ev *TraceEvent) {
		ev.Path = path
		ev.Done = x.merged
		ev.Critical = x.critical
	})
}

// emitProgress sends one event to the sink, if any.
func (x *execution) emitProgress(final bool) {
	if x.engine.progress == nil {
		return
	}
	p := Progress{
		Done:           x.merged,
		Planned:        x.plannedInjections(),
		Critical:       x.critical,
		Stratum:        x.lastStratum,
		Elapsed:        time.Since(x.start),
		Final:          final,
		Retries:        x.retries,
		Quarantined:    int64(len(x.quarantined)),
		AbandonedLanes: x.abandoned,
	}
	if x.lastStratum >= 0 {
		p.StratumDone = x.strata[x.lastStratum].cursor
		p.StratumPlanned = x.plan.Subpops[x.lastStratum].SampleSize
	}
	if secs := p.Elapsed.Seconds(); secs > 0 {
		p.Rate = float64(x.merged-x.restored) / secs
	}
	if x.reporter != nil {
		p.Eval = x.reporter.EvalStats().Sub(x.statsBase)
	}
	x.engine.progress(p)
}

// assemble builds the Result from the per-stratum prefix tallies. For a
// completed campaign every cursor equals its planned sample size, so the
// Result is field-for-field what the classic Run produces.
func (x *execution) assemble(aborted bool) *Result {
	res := &Result{Plan: x.plan, Partial: aborted, Ranges: x.ranges}
	for i, sub := range x.plan.Subpops {
		st := x.strata[i]
		from, _ := x.rangeBounds(i)
		// SampleSize is the effective n (quarantined draws excluded), so
		// every downstream margin — Estimate.Margin, Compare, sfireport —
		// is automatically the stats.ObservedMargin over the reduced n.
		// Ranged runs report the window-local n (cursor is absolute).
		res.Estimates = append(res.Estimates, stats.ProportionEstimate{
			Successes:      st.successes,
			SampleSize:     st.cursor - from - st.quarantined,
			PopulationSize: sub.Population,
			PlannedP:       sub.P,
		})
		if st.stopped {
			res.EarlyStopped = append(res.EarlyStopped, i)
		}
		if sub.Layer < 0 {
			if res.LayerSlices == nil {
				res.LayerSlices = make(map[int]stats.ProportionEstimate)
			}
			for l, pl := range st.perLayer {
				agg, ok := res.LayerSlices[l]
				if !ok {
					agg = stats.ProportionEstimate{
						PopulationSize: pl.PopulationSize,
						PlannedP:       pl.PlannedP,
					}
				}
				agg.SampleSize += pl.SampleSize
				agg.Successes += pl.Successes
				res.LayerSlices[l] = agg
			}
		}
	}
	if len(x.quarantined) > 0 {
		// Merge order across strata is scheduling-dependent; the sorted
		// copy makes Result.Quarantined a pure function of (plan, seed)
		// whenever failures are, regardless of worker count.
		q := make([]QuarantinedFault, len(x.quarantined))
		copy(q, x.quarantined)
		sort.Slice(q, func(i, j int) bool {
			if q[i].Stratum != q[j].Stratum {
				return q[i].Stratum < q[j].Stratum
			}
			return q[i].Index < q[j].Index
		})
		res.Quarantined = q
	}
	return res
}

// warnf delivers a one-line operational warning through the WithWarnings
// sink, or to stderr without one. Warnings are rare (checkpoint
// recovery, quarantine) — never per-experiment hot-path events.
func (x *execution) warnf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if x.engine.warn != nil {
		x.engine.warn(msg)
		return
	}
	fmt.Fprintf(os.Stderr, "core: %s\n", msg)
}

// shardOversubscription sets how many shards each worker receives on
// average. A few shards per worker smooth out unequal shard costs
// (SDC early exit makes critical faults much cheaper than benign ones)
// without measurable scheduling overhead; shard boundaries are also the
// granularity of cancellation, checkpointing, and early stop.
const shardOversubscription = 4

// shard is one contiguous slice of one stratum's drawn sample, plus the
// tallies its evaluation produced.
type shard struct {
	stratum   int
	start     int64 // offset of idx[0] within the stratum's drawn sample
	idx       []int64
	successes int64
	// perLayer collects the per-layer slices of a network-wise stratum's
	// global sample (nil for layer- or bit-granular strata).
	perLayer map[int]*stats.ProportionEstimate
	// Supervision outcomes (supervised campaigns only): faults excluded
	// after exhausting retries, experiments that needed retries, the
	// total failed-attempt count, and the number of watchdog-abandoned
	// lanes this shard's evaluation left behind. Folded in by mergeShard.
	quarantined []QuarantinedFault
	retried     []retryRecord
	retries     int64
	abandoned   int64
}

// makeShards splits every stratum's sample into contiguous chunks of
// roughly total/(workers·shardOversubscription) draws. Small strata stay
// whole; a single large stratum fans out across all workers. A non-nil
// ranges vector (WithDrawRanges) restricts each stratum to its [From,
// To) draw window — shard offsets stay absolute draw positions, and the
// chunk size is derived from the windowed total so a ranged run
// oversubscribes its workers exactly like a full run of the same size.
func makeShards(plan *Plan, samples [][]int64, workers int, ranges []DrawRange) []*shard {
	bounds := func(i int) (int64, int64) {
		if ranges == nil {
			return 0, plan.Subpops[i].SampleSize
		}
		return ranges[i].From, ranges[i].To
	}
	var total int64
	for i := range plan.Subpops {
		from, to := bounds(i)
		total += to - from
	}
	chunk := int(total / int64(workers*shardOversubscription))
	if chunk < 1 {
		chunk = 1
	}
	var shards []*shard
	for i := range plan.Subpops {
		from, to := bounds(i)
		idx := samples[i][from:to]
		for start := 0; start < len(idx); start += chunk {
			end := start + chunk
			if end > len(idx) {
				end = len(idx)
			}
			shards = append(shards, &shard{stratum: i, start: from + int64(start), idx: idx[start:end]})
		}
	}
	return shards
}

// evaluate runs the shard's experiments against one evaluator. Each
// shard is touched by exactly one worker, so no locking is needed.
func (s *shard) evaluate(ev Evaluator, space faultmodel.Space, plan *Plan, validate, grouped bool) {
	sub := plan.Subpops[s.stratum]
	if sub.Layer < 0 {
		s.perLayer = make(map[int]*stats.ProportionEstimate)
	}
	if grouped && len(s.idx) > 1 {
		s.evaluateGrouped(ev, space, sub, validate)
		return
	}
	for _, j := range s.idx {
		f := decodeShardFault(space, sub, j, validate)
		s.tally(space, sub, f, ev.IsCritical(f))
	}
}

// evaluateGrouped is the WithGroupedEvaluation shard path: decode every
// draw up front, evaluate in (layer, param, bit, model) order — draw
// order within a group — and tally the verdicts strictly in draw order.
// Evaluation order cannot change a verdict (every experiment restores
// its fault before returning), so the shard's tallies are bit-identical
// to the ungrouped path's.
func (s *shard) evaluateGrouped(ev Evaluator, space faultmodel.Space, sub Subpopulation, validate bool) {
	faults := make([]faultmodel.Fault, len(s.idx))
	for i, j := range s.idx {
		faults[i] = decodeShardFault(space, sub, j, validate)
	}
	perm := make([]int, len(faults))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool {
		fa, fb := faults[perm[a]], faults[perm[b]]
		if fa.Layer != fb.Layer {
			return fa.Layer < fb.Layer
		}
		if fa.Param != fb.Param {
			return fa.Param < fb.Param
		}
		if fa.Bit != fb.Bit {
			return fa.Bit < fb.Bit
		}
		if fa.Model != fb.Model {
			return fa.Model < fb.Model
		}
		return perm[a] < perm[b] // keep draw order within a group
	})
	verdicts := make([]bool, len(faults))
	for _, i := range perm {
		verdicts[i] = ev.IsCritical(faults[i])
	}
	for i, f := range faults {
		s.tally(space, sub, f, verdicts[i])
	}
}

// tally folds one verdict into the shard's counters (draw-order calls
// only — the per-layer slices accumulate in the order faults appear in
// s.idx).
func (s *shard) tally(space faultmodel.Space, sub Subpopulation, f faultmodel.Fault, critical bool) {
	if critical {
		s.successes++
	}
	if s.perLayer != nil {
		pl := s.perLayer[f.Layer]
		if pl == nil {
			pl = &stats.ProportionEstimate{
				PopulationSize: space.LayerTotal(f.Layer),
				PlannedP:       sub.P,
			}
			s.perLayer[f.Layer] = pl
		}
		pl.SampleSize++
		if critical {
			pl.Successes++
		}
	}
}

// decodeShardFault maps a stratum-local index to a concrete fault,
// validating the decode when requested (WithDecodeValidation, or the
// SFI_VALIDATE_DECODE environment fallback).
func decodeShardFault(space faultmodel.Space, sub Subpopulation, j int64, validate bool) faultmodel.Fault {
	if validate {
		f, err := decodeFaultChecked(space, sub, j)
		if err != nil {
			panic(err)
		}
		return f
	}
	return decodeFault(space, sub, j)
}

// drawAll reproduces the classic serial sampling exactly: one master
// generator seeded with seed, consumed stratum by stratum in plan order.
func drawAll(plan *Plan, seed int64) [][]int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int64, len(plan.Subpops))
	for i, sub := range plan.Subpops {
		out[i] = stats.SampleWithoutReplacement(rng, sub.Population, sub.SampleSize)
	}
	return out
}

// decodeFaultChecked is decodeFault with validation; the shard runner
// uses it when decode validation is enabled.
func decodeFaultChecked(space faultmodel.Space, sub Subpopulation, j int64) (faultmodel.Fault, error) {
	f := decodeFault(space, sub, j)
	if err := space.Validate(f); err != nil {
		return faultmodel.Fault{}, fmt.Errorf("core: decoded invalid fault: %w", err)
	}
	return f, nil
}
