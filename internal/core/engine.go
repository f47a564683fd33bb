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
// events, checkpoint/resume, and supervision. Run and RunParallel are
// thin compatibility wrappers over it. Every stratum evaluates exactly
// its planned (Eq. 1) sample, so the error margin the plan was sized for
// holds.
//
// Determinism guarantee (the anchor every feature preserves): one
// generator seeded with seed draws every stratum's sample in plan order,
// each sample is cut into shards at fixed grid positions that depend on
// the plan alone (shardGrid), and per-shard tallies are merged strictly
// in draw order — so a Result is a pure function of (plan, seed),
// bit-identical across worker counts and across interrupt/resume
// cycles. The draw streams: each shard is handed to the workers as soon
// as it is drawn, into one of a few recycled buffers, so drawing
// overlaps evaluation and the draw's memory scales with the worker count
// rather than with the plan.
//
// An Engine is immutable after NewEngine and safe to reuse across
// Execute calls (each call keeps its own run state), but two concurrent
// Execute calls sharing one checkpoint path would race on the file.
type Engine struct {
	workers        int
	progress       ProgressSink
	checkpointPath string
	resume         bool
	ranges         []DrawRange
	trace          TraceSink

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
// Events arrive whenever at least one grid spacing (shardGrid) of draws
// has been tallied since the last one, so every campaign of at least
// minGridCells draws reports many times while it runs.
func WithProgress(sink ProgressSink) Option { return func(e *Engine) { e.progress = sink } }

// WithCheckpoint enables periodic campaign checkpoints at path, written
// every checkpointPeriod of wall time: the per-stratum cursor + tallies
// + seed are serialized so an interrupted campaign can resume
// (WithResume), at any worker count, and produce a Result bit-identical
// to an uninterrupted run at the same seed. A checkpoint is also written
// when the context is cancelled, and the file is removed when the
// campaign completes.
func WithCheckpoint(path string) Option { return func(e *Engine) { e.checkpointPath = path } }

// checkpointPeriod is the wall time between periodic checkpoint writes.
// It is a period rather than an injection count because experiment costs
// span five orders of magnitude, from ~100 ns oracle verdicts to
// multi-millisecond ResNet-20 inferences: a hard crash loses seconds of
// work at any experiment cost, while a write (two file replacements, at
// most ~100 ms on the slowest host measured) keeps the overhead under
// ~1%. It is a variable only so in-package tests can lower it.
var checkpointPeriod = 10 * time.Second

// WithResume makes Execute load the WithCheckpoint file (when it
// exists) before starting, skipping the already-tallied prefix of every
// stratum. Execute fails if the checkpoint belongs to a different plan
// or seed; a missing file starts a fresh campaign.
func WithResume() Option { return func(e *Engine) { e.resume = true } }

// NewEngine builds an engine; defaults are GOMAXPROCS workers, no
// progress sink and no checkpointing. Decode validation follows the
// SFI_VALIDATE_DECODE environment variable (validateDecode).
func NewEngine(opts ...Option) *Engine {
	e := &Engine{
		maxRetries: -1, // supervision off
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// stratumState is one stratum's running tally: the contiguous prefix of
// its drawn sample that has been evaluated and merged (cursor draws,
// successes criticals), plus the per-layer slices for global strata.
type stratumState struct {
	cursor    int64
	successes int64
	perLayer  map[int]*stats.ProportionEstimate
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
	grid   int64 // shard grid spacing (shardGrid)
	// pending holds, per stratum, the dispatched shards not yet merged,
	// in draw order (the generator emits each stratum's shards in order).
	pending [][]*shard

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

	sinceProgress  int64     // merged injections since the last progress event
	lastCheckpoint time.Time // last periodic checkpoint write, or Execute's start

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
	if e.expTimeout < 0 {
		return nil, fmt.Errorf("core: engine: negative experiment timeout %v", e.expTimeout)
	}
	if err := validateRanges(e.ranges, plan); err != nil {
		return nil, err
	}
	validate := validateDecode
	workers := e.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	start := time.Now()
	x := &execution{
		engine:         e,
		plan:           plan,
		space:          ev.Space(),
		seed:           seed,
		start:          start,
		workers:        workers,
		strata:         make([]*stratumState, len(plan.Subpops)),
		grid:           shardGrid(plan),
		ranges:         e.ranges,
		lastStratum:    -1,
		lastCheckpoint: start,
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

	// The determinism anchor: one generator draws every stratum's sample
	// in plan order, cut on the plan's shard grid, while the workers
	// evaluate what is already drawn. Checkpointed strata resume at their
	// cursor.
	first := make([]int64, len(plan.Subpops))
	for i, st := range x.strata {
		first[i] = st.cursor
	}
	x.pending = make([][]*shard, len(plan.Subpops))
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

	// Every drawn, unmerged shard holds one of the free list's buffers,
	// so the buffer count bounds the draw's lookahead and its memory.
	buffers := 2*workers + 2
	free := make(chan []int64, buffers)
	for range buffers {
		free <- nil
	}
	drawn := make(chan *shard, buffers)
	quit := make(chan struct{})
	type completion struct {
		shard     *shard
		evaluated bool
		worker    int
		dur       time.Duration // shard evaluation wall time
	}
	jobs := make(chan *shard)
	results := make(chan completion, buffers) // workers never block
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		x.drawShards(first, free, drawn, quit)
	}()
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
			for s := range jobs {
				// Cooperative cancellation, checked at shard boundaries:
				// a cancelled worker reports the shard back unevaluated.
				if ctx.Err() != nil {
					results <- completion{shard: s, worker: w}
					continue
				}
				t0 := time.Now()
				if sw != nil {
					sw.evaluateShard(s, x.space, plan, validate)
				} else {
					s.evaluate(ev, x.space, plan, validate)
				}
				results <- completion{shard: s, evaluated: true, worker: w, dur: time.Since(t0)}
			}
		}(w, evals[w])
	}

	// Dispatch loop: one goroutine owns all bookkeeping (prefix merge,
	// checkpoints, progress, the free list), so none of it
	// needs locks. It holds at most one drawn shard (next) while waiting
	// for a worker, so the generator runs ahead by the free buffers only.
	var runErr error
	aborted := false
	ctxDone := ctx.Done()
	var next *shard
	inFlight := 0
	for {
		var jobCh chan *shard
		var drawnCh <-chan *shard
		if !aborted && (next != nil || drawn != nil) {
			// select picks at random among ready cases, so ctx.Done alone
			// could lose to dispatch until every shard is handed out and
			// a cancelled campaign would come back complete.
			if ctx.Err() != nil {
				aborted = true
			} else if next != nil {
				jobCh = jobs
			} else {
				drawnCh = drawn
			}
		}
		if jobCh == nil && drawnCh == nil && inFlight == 0 {
			break
		}
		select {
		case jobCh <- next:
			x.traceStratumStart(next.stratum)
			x.pending[next.stratum] = append(x.pending[next.stratum], next)
			next = nil
			inFlight++
		case s, ok := <-drawnCh:
			if !ok {
				drawn = nil // every shard drawn
				continue
			}
			next = s
		case c := <-results:
			inFlight--
			free <- c.shard.idx
			if !c.evaluated {
				// A worker saw cancellation: the shard stays unmerged, so
				// the Result is partial whatever select picks next.
				aborted = true
				continue
			}
			if x.trace != nil {
				s := c.shard
				x.emitTrace(TraceShardDone, func(ev *TraceEvent) {
					ev.Stratum = s.stratum
					ev.Shard = s.seq
					ev.Worker = c.worker
					ev.Injections = int64(len(s.idx))
					ev.Dur = c.dur
				})
			}
			x.handleCompletion(c.shard)
			if !aborted {
				if err := x.housekeeping(); err != nil {
					runErr = err
					aborted = true
				}
			}
		case <-ctxDone:
			aborted = true
			ctxDone = nil
		}
	}
	close(quit)
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
		ev.Retries = x.retries
		ev.Quarantined = int64(len(x.quarantined))
		ev.Eval = x.evalSnapshot()
		if secs := ev.Elapsed.Seconds(); secs > 0 {
			ev.Rate = float64(x.merged-x.restored) / secs
		}
	})
}

// handleCompletion records an evaluated shard and merges the stratum's
// contiguous completed prefix, in draw order.
func (x *execution) handleCompletion(s *shard) {
	s.done = true
	i := s.stratum
	q := x.pending[i]
	for len(q) > 0 && q[0].done {
		x.mergeShard(q[0])
		q = q[1:]
	}
	x.pending[i] = q
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
	x.lastStratum = s.stratum
}

// housekeeping emits a progress event once a grid spacing of draws has
// merged since the last one, and writes a checkpoint once
// checkpointPeriod has passed since the last write.
func (x *execution) housekeeping() error {
	e := x.engine
	if e.progress != nil && x.sinceProgress >= x.grid {
		x.sinceProgress = 0
		x.emitProgress(false)
	}
	if e.checkpointPath != "" && time.Since(x.lastCheckpoint) >= checkpointPeriod {
		if err := x.writeCheckpoint(e.checkpointPath); err != nil {
			return err
		}
		x.lastCheckpoint = time.Now()
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

// The shard grid is the set of absolute draw positions every stratum's
// sample is cut at: a shard covers [k·g, (k+1)·g) of its stratum's
// draws, clipped to the stratum's draw window, for the plan's grid
// spacing g (shardGrid). The grid depends on the plan alone, so shard
// boundaries — which are also where checkpoint cursors sit — are the
// same at every worker count.
const (
	// maxShardGrid caps the spacing, chosen by measurement on oracle
	// campaigns (EXPERIMENTS.md, "Campaign engine overhead"): smaller
	// shards pay more per-shard dispatch, larger ones hold more draw
	// memory.
	maxShardGrid = 4096
	// minGridCells is how many shards a plan is cut into at least (when
	// it has that many draws): enough for small plans of slow inference
	// experiments to spread over 8 workers four shards deep, and to be
	// interrupted and checkpointed mid-campaign.
	minGridCells = 32
)

// shardGrid returns the plan's grid spacing: the largest power of two
// up to maxShardGrid that still cuts the plan into minGridCells shards.
func shardGrid(plan *Plan) int64 {
	total := plan.TotalInjections()
	g := int64(maxShardGrid)
	for g > 1 && g*minGridCells > total {
		g /= 2
	}
	return g
}

// shard is one contiguous slice of one stratum's drawn sample, plus the
// tallies its evaluation produced.
type shard struct {
	stratum int
	seq     int   // run-local shard number, in draw order (trace id)
	start   int64 // absolute draw position of idx[0] within the stratum's sample
	// idx holds the drawn indices in a free-list buffer. The buffer goes
	// back to the free list as soon as the shard is evaluated; only
	// len(idx) is read after that.
	idx       []int64
	done      bool // evaluated, awaiting its turn in the stratum's merge
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

// drawShards is the streamed draw. It consumes one generator seeded with
// seed stratum by stratum in plan order, exactly as the classic serial
// Run does, and sends each stratum's sample to out one grid shard at a
// time, as soon as that shard is drawn, in a buffer taken from free.
// Stratum i is emitted from draw first[i] (its resume cursor, or its
// window's start) to its window's end; the draws outside that span are
// still made and discarded, so the sample never depends on the window.
// drawShards closes out when done and returns early once quit closes.
func (x *execution) drawShards(first []int64, free <-chan []int64, out chan<- *shard, quit <-chan struct{}) {
	defer close(out)
	rng := rand.New(rand.NewSource(x.seed))
	g := x.grid
	var fl stats.FloydSampler
	var scratch []int64
	discard := func(m int64) {
		for m > 0 {
			if scratch == nil {
				scratch = make([]int64, g)
			}
			c := min(m, g)
			fl.Draw(scratch[:c])
			m -= c
		}
	}
	seq := 0
	for i, sub := range x.plan.Subpops {
		fl.Reset(rng, sub.Population, sub.SampleSize)
		_, to := x.rangeBounds(i)
		pos := first[i]
		discard(pos)
		for pos < to {
			end := min((pos/g+1)*g, to)
			var buf []int64
			select {
			case buf = <-free:
			case <-quit:
				return
			}
			if buf == nil {
				buf = make([]int64, g)
			}
			s := &shard{stratum: i, seq: seq, start: pos, idx: buf[:end-pos]}
			fl.Draw(s.idx)
			select {
			case out <- s:
			case <-quit:
				return
			}
			seq++
			pos = end
		}
		discard(sub.SampleSize - pos)
	}
}

// evaluate runs the shard's experiments against one evaluator. Each
// shard is touched by exactly one worker, so no locking is needed.
func (s *shard) evaluate(ev Evaluator, space faultmodel.Space, plan *Plan, validate bool) {
	sub := plan.Subpops[s.stratum]
	if sub.Layer < 0 {
		s.perLayer = make(map[int]*stats.ProportionEstimate)
	}
	for _, j := range s.idx {
		f := decodeShardFault(space, sub, j, validate)
		s.tally(space, sub, f, ev.IsCritical(f))
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
// validating the decode when requested (SFI_VALIDATE_DECODE).
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

// decodeFaultChecked is decodeFault with validation; the shard runner
// uses it when decode validation is enabled.
func decodeFaultChecked(space faultmodel.Space, sub Subpopulation, j int64) (faultmodel.Fault, error) {
	f := decodeFault(space, sub, j)
	if err := space.Validate(f); err != nil {
		return faultmodel.Fault{}, fmt.Errorf("core: decoded invalid fault: %w", err)
	}
	return f, nil
}
