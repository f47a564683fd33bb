package core

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"cnnsfi/internal/faultmodel"
	"cnnsfi/internal/stats"
)

// This file is the engine's supervision layer: panic isolation, a
// per-experiment watchdog, bounded retries on freshly cloned
// evaluators, and deterministic quarantine of faults that keep failing.
//
// Supervision exists because one bad experiment must not invalidate a
// multi-hour campaign: a panicking decode or evaluator kills the whole
// process today, and a hung inference stalls its worker forever. With
// supervision enabled, both become a typed ExperimentError, the fault
// is re-run up to the retry budget on a fresh evaluator clone (the
// WorkerCloner seam), and a fault that exhausts its budget is
// quarantined *by fault identity* — excluded from the tally with the
// stratum's effective sample size reduced accordingly — so the Result
// stays bit-identical across worker counts and the statistics report
// exactly how much power was lost (stats.ObservedMargin over the
// reduced n).
//
// Supervision disabled (the default) costs one nil check per shard:
// the classic shard.evaluate hot path is untouched.

// WithExperimentTimeout bounds each supervised experiment's wall time.
// An experiment that exceeds d is abandoned (its goroutine is left to
// finish into a discarded buffer — IsCritical is synchronous and cannot
// be killed), counted as a failed attempt, and re-run per WithMaxRetries
// on a freshly cloned evaluator. Setting a timeout enables supervision;
// d = 0 (the default) means no deadline.
func WithExperimentTimeout(d time.Duration) Option {
	return func(e *Engine) { e.expTimeout = d }
}

// WithMaxRetries sets how many times a failing experiment (panic or
// timeout) is re-run — on a fresh evaluator clone when the evaluator
// implements WorkerCloner — before the fault is quarantined. Calling it
// with n >= 0 enables supervision (panic isolation); n = 0 quarantines
// on the first failure. The default (supervision off) lets panics
// propagate exactly as the classic runners do.
func WithMaxRetries(n int) Option {
	return func(e *Engine) { e.maxRetries = n }
}

// WithWarnings installs a sink for the engine's rare one-line
// operational warnings (today: checkpoint recovery fallbacks and
// quarantine notices). Without a sink, warnings go to os.Stderr.
func WithWarnings(sink func(msg string)) Option {
	return func(e *Engine) { e.warn = sink }
}

// supervised reports whether any supervision option is active.
func (e *Engine) supervised() bool { return e.expTimeout > 0 || e.maxRetries >= 0 }

// ExperimentError is one supervised experiment failure: a recovered
// panic or a watchdog timeout, carrying the fault identity (stratum +
// draw index + rendered fault, when the decode itself survived) and the
// recovered panic value with its stack. Quarantine records and trace
// events carry its Error() rendering.
type ExperimentError struct {
	// Stratum / Index identify the fault by its position in the plan's
	// drawn sample — the identity quarantine is keyed on.
	Stratum int
	Index   int64
	// Fault is the rendered fault (faultmodel.Fault.String()), or ""
	// when the decode itself panicked before producing one.
	Fault string
	// Attempt is the 1-based attempt number that failed.
	Attempt int
	// Timeout marks a watchdog expiry; otherwise Panic holds the
	// recovered value and Stack the goroutine stack at recovery.
	Timeout bool
	Panic   any
	Stack   []byte
}

// Error renders the failure as one line (no stack).
func (e *ExperimentError) Error() string {
	id := e.Fault
	if id == "" {
		id = "<undecoded>"
	}
	if e.Timeout {
		return fmt.Sprintf("experiment %s (stratum %d, draw %d) exceeded the experiment timeout on attempt %d",
			id, e.Stratum, e.Index, e.Attempt)
	}
	return fmt.Sprintf("experiment %s (stratum %d, draw %d) panicked on attempt %d: %v",
		id, e.Stratum, e.Index, e.Attempt, e.Panic)
}

// QuarantinedFault is one fault excluded from a campaign's tallies
// after exhausting its retry budget. The set of quarantined faults is a
// function of fault identity (every fault occupies exactly one draw
// position, evaluated exactly once plus retries), so it is bit-identical
// across worker counts; Result.Quarantined is sorted by (Stratum,
// Index).
type QuarantinedFault struct {
	// Stratum indexes Plan.Subpops; Index is the fault's draw position
	// within that stratum's sample.
	Stratum int   `json:"stratum"`
	Index   int64 `json:"index"`
	// Fault is the rendered fault identity ("" when the decode itself
	// failed).
	Fault string `json:"fault,omitempty"`
	// Attempts counts evaluation attempts (1 + retries).
	Attempts int `json:"attempts"`
	// Err is the last failure's ExperimentError rendering.
	Err string `json:"err"`
}

// retryRecord is one supervised experiment that produced a verdict only
// after failed attempts; it rides back on the shard for trace emission.
type retryRecord struct {
	index    int64 // draw position within the stratum
	fault    string
	failures int // failed attempts before the verdict
	err      string
}

// supervisor is the engine-wide supervision state shared by all
// workers: the configuration plus the pristine evaluator retry clones
// are cut from. The pristine clone is made before any evaluation
// starts and never evaluated on, so clones cut from it mid-campaign
// are guaranteed uncorrupted even if a worker's own evaluator panicked
// halfway through a weight mutation.
type supervisor struct {
	timeout time.Duration
	retries int

	mu       sync.Mutex
	pristine WorkerCloner // nil when the evaluator is shared (not cloneable)
}

// newSupervisor builds the supervision state for one Execute call.
func newSupervisor(e *Engine, ev Evaluator) *supervisor {
	s := &supervisor{timeout: e.expTimeout, retries: max(e.maxRetries, 0)}
	if c, ok := ev.(WorkerCloner); ok {
		if p, ok := c.CloneForWorker().(WorkerCloner); ok {
			s.pristine = p
		}
	}
	return s
}

// fresh returns an uncorrupted evaluator to retry on: a clone cut from
// the pristine copy when the evaluator supports cloning, the current
// evaluator otherwise (shared evaluators are concurrency-safe and hold
// no per-experiment state by contract).
func (s *supervisor) fresh(cur Evaluator) Evaluator {
	if s.pristine == nil {
		return cur
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pristine.CloneForWorker()
}

// verdict is the outcome of one supervised experiment attempt.
type verdict struct {
	fault    faultmodel.Fault
	decoded  bool
	critical bool
	panicked bool
	panicVal any
	stack    []byte
	timedOut bool
}

// failed reports whether the attempt produced no verdict.
func (v verdict) failed() bool { return v.panicked || v.timedOut }

// runIsolated executes one experiment attempt inside a recover
// boundary, converting a panic (in the decode or the evaluator) into a
// verdict instead of killing the worker.
func runIsolated(fn func() verdict) (v verdict) {
	defer func() {
		if r := recover(); r != nil {
			v = verdict{panicked: true, panicVal: r, stack: debug.Stack()}
		}
	}()
	return fn()
}

// abandonedLanes counts watchdog-abandoned lanes whose goroutine has
// not yet exited — each is one goroutine still pinned by a hung (or
// slow) experiment. The count rises when a timeout abandons a lane and
// falls when the abandoned lane's experiment finally returns and its
// goroutine exits; a lane that never returns keeps the count raised
// permanently, which is exactly the goroutine leak the gauge makes
// visible. Lanes released cleanly (worker shutdown, post-failure
// refresh) are never counted: their goroutines exit immediately.
var abandonedLanes atomic.Int64

// WatchdogAbandonedLanes returns the number of watchdog-abandoned lane
// goroutines currently alive, process-wide. Exported as the
// sfi_watchdog_abandoned_lanes gauge by cmd/sfirun's metrics endpoint;
// a value that stays above zero after campaigns finish means hung
// experiments are holding goroutines (and one evaluator clone each)
// forever.
func WatchdogAbandonedLanes() int64 { return abandonedLanes.Load() }

// supLane is a helper goroutine experiments run on when a watchdog
// timeout is configured, so a hung IsCritical can be abandoned without
// stalling the worker. out is buffered: an abandoned lane's final send
// lands in the buffer and the goroutine exits when it sees in closed.
type supLane struct {
	in  chan func() verdict
	out chan verdict
	// abandoned is set (before in is closed, so the lane goroutine
	// observes it after its range loop ends) only by a watchdog-timeout
	// abandonment; it tells the exiting goroutine to decrement
	// abandonedLanes.
	abandoned atomic.Bool
}

func startLane() *supLane {
	l := &supLane{in: make(chan func() verdict), out: make(chan verdict, 1)}
	go func() {
		for fn := range l.in {
			l.out <- runIsolated(fn)
		}
		if l.abandoned.Load() {
			abandonedLanes.Add(-1)
		}
	}()
	return l
}

// abandon releases the lane: the goroutine exits now if idle, or after
// its in-flight experiment returns (a truly hung call leaks exactly one
// goroutine, which is why retries run on a fresh evaluator).
func (l *supLane) abandon() { close(l.in) }

// abandonTimedOut is abandon for the watchdog-timeout path: the lane is
// counted in the abandoned-lanes gauge until its goroutine exits. The
// flag and increment precede close(in) so the goroutine's post-loop
// load is ordered after them (channel close is the synchronising edge).
func (l *supLane) abandonTimedOut() {
	l.abandoned.Store(true)
	abandonedLanes.Add(1)
	close(l.in)
}

// supWorker is one worker's supervision state: its current evaluator
// (replaced after any failure) and its watchdog lane.
type supWorker struct {
	sup  *supervisor
	ev   Evaluator
	lane *supLane
}

// close releases the worker's lane on shutdown.
func (w *supWorker) close() {
	if w.lane != nil {
		w.lane.abandon()
		w.lane = nil
	}
}

// refresh discards the worker's possibly-corrupted evaluator (and the
// lane still referencing it) and swaps in a fresh clone.
func (w *supWorker) refresh() {
	w.close()
	w.ev = w.sup.fresh(w.ev)
}

// attempt runs one experiment attempt, inline (recover only) without a
// timeout, or on the lane under the watchdog with one.
func (w *supWorker) attempt(fn func(Evaluator) verdict) verdict {
	ev := w.ev
	job := func() verdict { return fn(ev) }
	if w.sup.timeout <= 0 {
		return runIsolated(job)
	}
	if w.lane == nil {
		w.lane = startLane()
	}
	w.lane.in <- job
	timer := time.NewTimer(w.sup.timeout)
	defer timer.Stop()
	select {
	case v := <-w.lane.out:
		return v
	case <-timer.C:
		w.lane.abandonTimedOut()
		w.lane = nil
		return verdict{timedOut: true}
	}
}

// evaluateShard is shard.evaluate with per-experiment supervision:
// decode + IsCritical run inside a recover boundary (and under the
// watchdog when configured); a failed experiment is retried up to the
// budget on a fresh evaluator, and quarantined past it. Tally order and
// content are identical to the classic path for every experiment that
// produces a verdict.
func (w *supWorker) evaluateShard(s *shard, space faultmodel.Space, plan *Plan, validate bool) {
	sub := plan.Subpops[s.stratum]
	if sub.Layer < 0 {
		s.perLayer = make(map[int]*stats.ProportionEstimate)
	}
	for off, j := range s.idx {
		j := j
		experiment := func(ev Evaluator) verdict {
			f := decodeShardFault(space, sub, j, validate)
			return verdict{fault: f, decoded: true, critical: ev.IsCritical(f)}
		}
		v := w.attempt(experiment)
		if v.timedOut {
			s.abandoned++
		}
		failures := 0
		var lastErr *ExperimentError
		for v.failed() && failures <= w.sup.retries {
			failures++
			lastErr = w.describeFailure(v, s, space, sub, j, off, failures)
			if failures > w.sup.retries {
				break
			}
			w.refresh() // assume the evaluator is poisoned; retry on a fresh clone
			v = w.attempt(experiment)
			if v.timedOut {
				s.abandoned++
			}
		}
		if v.failed() {
			w.refresh()
			s.quarantined = append(s.quarantined, QuarantinedFault{
				Stratum:  s.stratum,
				Index:    s.start + int64(off),
				Fault:    lastErr.Fault,
				Attempts: failures,
				Err:      lastErr.Error(),
			})
			continue
		}
		if failures > 0 {
			s.retried = append(s.retried, retryRecord{
				index:    s.start + int64(off),
				fault:    v.fault.String(),
				failures: failures,
				err:      lastErr.Error(),
			})
			s.retries += int64(failures)
		}
		s.tally(space, sub, v.fault, v.critical)
	}
}

// describeFailure builds the typed error for one failed attempt. The
// fault identity is re-decoded defensively when the failing attempt did
// not carry it (a timeout, or a panic inside the decode itself).
func (w *supWorker) describeFailure(v verdict, s *shard, space faultmodel.Space, sub Subpopulation, j int64, off, attempt int) *ExperimentError {
	e := &ExperimentError{
		Stratum: s.stratum,
		Index:   s.start + int64(off),
		Attempt: attempt,
		Timeout: v.timedOut,
		Panic:   v.panicVal,
		Stack:   v.stack,
	}
	if v.decoded {
		e.Fault = v.fault.String()
	} else if f, ok := safeDecode(space, sub, j); ok {
		e.Fault = f.String()
	}
	return e
}

// safeDecode decodes a fault under its own recover boundary, for
// failure labelling only. It never validates: it only attaches an
// identity label, and a validating decode might be the very thing that
// panicked.
func safeDecode(space faultmodel.Space, sub Subpopulation, j int64) (f faultmodel.Fault, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return decodeShardFault(space, sub, j, false), true
}
