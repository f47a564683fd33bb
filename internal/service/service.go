// Package service schedules many fault-injection campaigns inside one
// long-running process — the multi-tenant layer the sfid daemon exposes
// over HTTP. It composes exclusively out of seams the lower layers
// already provide: campaigns execute through core.Engine unchanged (so
// every Result is bit-identical to a direct sfirun invocation at the
// same plan and seed, at any worker count), engine checkpoints are the
// durable job state (a restarted service resumes every in-flight job
// from disk with zero re-evaluated draws), TraceSink/ProgressSink
// events become the SSE payload, and the telemetry Registry carries
// per-campaign labeled series.
//
// Scheduling model: one shared pool of worker tokens (Config.
// TotalWorkers). A job needs its fixed spec.Workers tokens to start and
// holds them until its Execute returns. The pending queue orders by
// (priority desc, submission order asc) and admits strictly from the
// head — no backfill — so a large job is never starved by a stream of
// later small ones; fairness is chosen over utilization. Backpressure
// is explicit: a full queue rejects submissions (HTTP 429), a draining
// service rejects everything (HTTP 503).
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"cnnsfi/internal/core"
	"cnnsfi/internal/telemetry"
)

// Submission and lookup sentinels; the HTTP layer maps each to one
// status code (ErrQueueFull → 429, ErrDraining → 503, ErrUnknownJob →
// 404, ErrJobNotDone and ErrJobDone → 409).
var (
	ErrQueueFull  = errors.New("pending queue full")
	ErrDraining   = errors.New("service draining")
	ErrUnknownJob = errors.New("unknown job")
	ErrJobNotDone = errors.New("job has not completed")
	ErrJobDone    = errors.New("job already finished")
)

// JobState is one node of the job lifecycle state machine:
//
//	pending → running → completed
//	                  → failed
//	pending|running   → canceled
//
// A daemon restart maps running back to pending (the checkpoint carries
// the progress); terminal states are final.
type JobState string

const (
	StatePending   JobState = "pending"
	StateRunning   JobState = "running"
	StateCompleted JobState = "completed"
	StateFailed    JobState = "failed"
	StateCanceled  JobState = "canceled"
)

// terminal reports whether st is final.
func (st JobState) terminal() bool {
	return st == StateCompleted || st == StateFailed || st == StateCanceled
}

// Config parameterises a Service. The zero value of every field selects
// a sensible default; only Dir is required.
type Config struct {
	// Dir is the state directory: job records, engine checkpoints, and
	// result documents all live here (see docs/OPERATIONS.md for the
	// layout). Created if missing.
	Dir string
	// TotalWorkers sizes the shared worker-token pool (default
	// GOMAXPROCS). A spec requesting more workers than this is clamped
	// to it at submission, since it could never start otherwise.
	TotalWorkers int
	// MaxQueue caps the pending queue (default 64); submissions beyond
	// it fail with ErrQueueFull.
	MaxQueue int
	// Registry receives service and per-campaign metrics; nil creates a
	// private registry (reachable via Registry()).
	Registry *telemetry.Registry
	// BuildEvaluator constructs each job's evaluator (default
	// DefaultEvaluator); tests substitute instrumented evaluators here.
	BuildEvaluator EvaluatorBuilder
	// Warnf, when set, receives one-line diagnostics (engine warnings,
	// persistence failures).
	Warnf func(format string, args ...any)
	// Coordinator enables federation: member sfid instances may register
	// (POST /api/v1/members + heartbeats) and federated submissions are
	// accepted, split across the live members, and merged. Off by
	// default; a non-coordinator rejects the member endpoints and
	// federated specs.
	Coordinator bool
	// MemberTimeout is the federation's one lease length (default 10s).
	// A member silent on heartbeats for this long is dead, and its
	// unreachable copies are dropped; a draw window left without a
	// running copy this long while no member was placeable is run by the
	// coordinator itself; a copy whose reported progress has not
	// advanced this long is backed up on an idle member; and a backup
	// for a slow copy must be expected to finish at least this much
	// sooner.
	MemberTimeout time.Duration
	// FederationPoll is the coordinator's member-job polling cadence
	// (default 500ms).
	FederationPoll time.Duration
	// ScrapeInterval is the coordinator's member /metrics scrape cadence
	// for the federated metric families (default 2s).
	ScrapeInterval time.Duration
	// MemberRPCTimeout bounds each member RPC attempt (default 5s).
	// Document fetches — results and traces can be large — get six
	// attempts' worth. Retries layer on top, so one slow attempt never
	// consumes the whole poll cycle.
	MemberRPCTimeout time.Duration
	// BreakerThreshold / BreakerOpenFor shape the per-member circuit
	// breaker: consecutive retryable failures before tripping (default
	// 5) and how long a tripped breaker refuses before admitting a
	// half-open probe (default 5s).
	BreakerThreshold int
	BreakerOpenFor   time.Duration
	// Transport, when set, replaces the default HTTP transport for every
	// fleet RPC — the seam the chaos tests and the sfid -chaos flag
	// inject faults through. Resilience wraps this transport; the engine
	// hot path never sees it.
	Transport http.RoundTripper
}

// job is the in-memory state of one campaign. Mutable fields are
// guarded by Service.mu except the live progress snapshot, which the
// engine's dispatcher goroutine updates under its own lock.
type job struct {
	id   string
	seq  int64
	spec CampaignSpec

	state       JobState
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time
	errMsg      string
	planned     int64
	done        int64 // final tally (terminal or recovered jobs)
	critical    int64
	restored    int64 // checkpoint prefix restored at the last start
	abandoned   int64 // watchdog-abandoned lanes (local run or summed members)
	warnings    []string
	userCancel  bool
	cancel      context.CancelFunc

	pmu     sync.Mutex
	prog    core.Progress
	hasProg bool

	// fedParts is the latest per-part progress snapshot of a running
	// federated job, refreshed by each fedStep for the fleet view.
	fedParts []FleetPart

	b *broadcaster
}

// Service is the campaign scheduler. All exported methods are safe for
// concurrent use.
type Service struct {
	cfg Config
	reg *telemetry.Registry

	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	drained chan struct{} // closed when Shutdown's wait completes

	mu        sync.Mutex
	jobs      map[string]*job
	order     []*job // every job, submission order
	queue     []*job // pending jobs, (priority desc, seq asc)
	free      int
	nextSeq   int64
	draining  bool
	members   map[string]*member // registered fleet (coordinator only)
	memberSeq int64

	submitted      *telemetry.Counter
	rejected       *telemetry.Counter
	retries        *telemetry.Counter
	specParts      *telemetry.Counter
	stateWriteErrs *telemetry.Counter

	// fed is the resilient RPC client every fleet call goes through
	// (per-attempt deadlines, retry budget, per-member breakers).
	fed *memberClient

	// fleet is the coordinator's member-scrape state (nil otherwise); it
	// has its own lock so scrapes never contend with the scheduler.
	fleet *fleetState
}

// New opens (or creates) the state directory, recovers every persisted
// job — terminal jobs become queryable, interrupted and queued ones
// re-enter the pending queue and resume from their checkpoints — and
// starts scheduling.
func New(cfg Config) (*Service, error) {
	if cfg.Dir == "" {
		return nil, errors.New("service: Config.Dir is required")
	}
	if cfg.TotalWorkers <= 0 {
		cfg.TotalWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.BuildEvaluator == nil {
		cfg.BuildEvaluator = DefaultEvaluator
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	if cfg.MemberTimeout <= 0 {
		cfg.MemberTimeout = 10 * time.Second
	}
	if cfg.FederationPoll <= 0 {
		cfg.FederationPoll = 500 * time.Millisecond
	}
	if cfg.ScrapeInterval <= 0 {
		cfg.ScrapeInterval = 2 * time.Second
	}
	if cfg.MemberRPCTimeout <= 0 {
		cfg.MemberRPCTimeout = 5 * time.Second
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: state dir: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:     cfg,
		reg:     cfg.Registry,
		ctx:     ctx,
		cancel:  cancel,
		drained: make(chan struct{}),
		jobs:    make(map[string]*job),
		members: make(map[string]*member),
		free:    cfg.TotalWorkers,
		nextSeq: 1,
	}
	s.registerServiceMetrics()
	s.fed = newMemberClient(cfg.Transport, cfg.MemberRPCTimeout,
		cfg.BreakerThreshold, cfg.BreakerOpenFor,
		func(int, error) { s.retries.Inc() })
	if cfg.Coordinator {
		s.fleet = newFleetState(cfg.Transport)
		s.loadMembers()
		s.registerFleetMetrics()
	}
	if err := s.recover(); err != nil {
		cancel()
		return nil, err
	}
	s.mu.Lock()
	s.dispatch()
	s.mu.Unlock()
	if cfg.Coordinator {
		s.wg.Add(1)
		go s.scrapeLoop()
	}
	return s, nil
}

// Registry returns the metrics registry the service reports into.
func (s *Service) Registry() *telemetry.Registry { return s.reg }

func (s *Service) warnf(format string, args ...any) {
	if s.cfg.Warnf != nil {
		s.cfg.Warnf(format, args...)
	}
}

// Submit validates, persists, and enqueues one campaign. The returned
// status reflects the job's state after an immediate dispatch attempt
// (it may already be running).
func (s *Service) Submit(spec CampaignSpec) (JobStatus, error) {
	spec.normalize()
	if err := spec.validate(); err != nil {
		return JobStatus{}, err
	}
	if spec.Federated && !s.cfg.Coordinator {
		return JobStatus{}, fmt.Errorf("%w: federated submit requires a coordinator (start sfid with -coordinator)",
			ErrInvalidSpec)
	}
	// A spec wider than the pool could never start; clamping it is safe
	// because the Result is the same at any worker count. A federated job
	// holds no local tokens — Workers sizes each member job, so the
	// member pools are the binding constraint, not ours.
	if !spec.Federated && spec.Workers > s.cfg.TotalWorkers {
		spec.Workers = s.cfg.TotalWorkers
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return JobStatus{}, ErrDraining
	}
	if len(s.queue) >= s.cfg.MaxQueue {
		s.rejected.Inc()
		s.mu.Unlock()
		return JobStatus{}, fmt.Errorf("%w: %d jobs pending (cap %d)", ErrQueueFull, len(s.queue), s.cfg.MaxQueue)
	}
	j := &job{
		id:          fmt.Sprintf("j%06d", s.nextSeq),
		seq:         s.nextSeq,
		spec:        spec,
		state:       StatePending,
		submittedAt: time.Now().UTC(),
		b:           newBroadcaster(),
	}
	s.nextSeq++
	if err := s.persistLocked(j); err != nil {
		s.mu.Unlock()
		return JobStatus{}, err
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.enqueueLocked(j)
	s.registerJobMetrics(j)
	s.submitted.Inc()
	s.dispatch()
	st := s.statusLocked(j)
	s.mu.Unlock()
	return st, nil
}

// enqueueLocked inserts j into the pending queue keeping (priority
// desc, seq asc) order.
func (s *Service) enqueueLocked(j *job) {
	i := sort.Search(len(s.queue), func(i int) bool {
		q := s.queue[i]
		if q.spec.Priority != j.spec.Priority {
			return q.spec.Priority < j.spec.Priority
		}
		return q.seq > j.seq
	})
	s.queue = append(s.queue, nil)
	copy(s.queue[i+1:], s.queue[i:])
	s.queue[i] = j
}

// tokenCost is how many shared worker tokens j holds while running: its
// fixed worker count, or zero for a federated job (the evaluation
// happens on the members' pools; the coordinator only polls and merges).
func (j *job) tokenCost() int {
	if j.spec.Federated {
		return 0
	}
	return j.spec.Workers
}

// dispatch starts queued jobs while the head job fits in the free
// token budget. Caller holds s.mu. Head-only admission keeps FIFO
// fairness: a queued wide job blocks later jobs of equal or lower
// priority rather than being overtaken forever.
func (s *Service) dispatch() {
	for !s.draining && len(s.queue) > 0 && s.queue[0].tokenCost() <= s.free {
		j := s.queue[0]
		s.queue = s.queue[1:]
		s.free -= j.tokenCost()
		j.state = StateRunning
		j.startedAt = time.Now().UTC()
		if err := s.persistLocked(j); err != nil {
			s.warnf("job %s: %v", j.id, err)
		}
		jctx, cancel := context.WithCancel(s.ctx)
		j.cancel = cancel
		s.wg.Add(1)
		go s.runJob(jctx, j)
	}
}

// runJob executes one campaign end to end: restore-aware start, engine
// run, result persistence, and the terminal (or re-pending) state
// transition that frees the job's worker tokens.
func (s *Service) runJob(ctx context.Context, j *job) {
	defer s.wg.Done()
	if j.spec.Federated {
		s.runFederated(ctx, j)
		return
	}
	if info, err := core.ReadCheckpointInfo(s.checkpointPath(j.id)); err == nil {
		s.mu.Lock()
		j.restored = info.Injections
		s.mu.Unlock()
	}
	ev, plan, err := buildCampaign(j.spec, s.cfg.BuildEvaluator)
	if err != nil {
		s.finish(j, StateFailed, err.Error(), 0, 0)
		return
	}
	s.mu.Lock()
	j.planned = plannedOf(j.spec, plan)
	if err := s.persistLocked(j); err != nil {
		s.warnf("job %s: %v", j.id, err)
	}
	s.mu.Unlock()

	tr, closeTrace := s.openTrace(j)
	res, err := core.NewEngine(s.engineOptions(j, tr)...).Execute(ctx, ev, plan, j.spec.RunSeed)
	// Close the trace before the terminal state transition so the trace
	// endpoint serves a complete file as soon as the job reads terminal.
	closeTrace()
	switch {
	case err == nil:
		if werr := s.writeResult(j.id, res); werr != nil {
			s.finish(j, StateFailed, werr.Error(), res.Injections(), criticalOf(res))
			return
		}
		s.finish(j, StateCompleted, "", res.Injections(), criticalOf(res))
	case res != nil && res.Partial && s.isUserCancel(j):
		// An individually canceled job will never resume; drop its
		// checkpoint so the state dir only holds live recovery data.
		os.Remove(s.checkpointPath(j.id))
		os.Remove(s.checkpointPath(j.id) + ".bak")
		s.finish(j, StateCanceled, "canceled", res.Injections(), criticalOf(res))
	case res != nil && res.Partial:
		// Service shutdown: the engine already wrote its final
		// checkpoint. Re-persist as pending so the next daemon run
		// requeues and resumes this job.
		s.repending(j, res.Injections(), criticalOf(res))
	default:
		s.finish(j, StateFailed, err.Error(), 0, 0)
	}
}

// criticalOf sums the critical tallies of a (possibly partial) result.
func criticalOf(res *core.Result) int64 {
	var n int64
	for _, est := range res.Estimates {
		n += est.Successes
	}
	return n
}

// isUserCancel reports whether Cancel marked this job (written and read
// under the service lock).
func (s *Service) isUserCancel(j *job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.userCancel
}

// repending parks an interrupted job back in the pending state on disk
// (without requeueing in memory — the service is shutting down), so the
// next daemon run requeues and resumes it.
func (s *Service) repending(j *job, done, critical int64) {
	s.mu.Lock()
	j.state = StatePending
	j.startedAt = time.Time{}
	j.done = done
	j.critical = critical
	j.cancel = nil
	s.free += j.tokenCost()
	if perr := s.persistLocked(j); perr != nil {
		s.warnf("job %s: %v", j.id, perr)
	}
	s.mu.Unlock()
	j.b.close(s.stateEvent(j))
}

// finish moves j to a terminal state, frees its tokens, persists, and
// closes the job's event stream with a final state event. The job's
// abandoned-lane tally is captured from the final progress snapshot so
// a coordinator can read it off the member's terminal status.
func (s *Service) finish(j *job, st JobState, errMsg string, done, critical int64) {
	j.pmu.Lock()
	abandoned := j.prog.AbandonedLanes
	j.pmu.Unlock()
	s.mu.Lock()
	j.state = st
	j.errMsg = errMsg
	j.finishedAt = time.Now().UTC()
	j.done = done
	j.critical = critical
	if abandoned > j.abandoned {
		j.abandoned = abandoned
	}
	j.cancel = nil
	s.free += j.tokenCost()
	if err := s.persistLocked(j); err != nil {
		s.warnf("job %s: %v", j.id, err)
	}
	s.dispatch()
	s.mu.Unlock()
	j.b.close(s.stateEvent(j))
}

// Get returns one job's status.
func (s *Service) Get(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return s.statusLocked(j), nil
}

// List returns every job in submission order.
func (s *Service) List() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, len(s.order))
	for i, j := range s.order {
		out[i] = s.statusLocked(j)
	}
	return out
}

// Cancel stops one job: a pending job leaves the queue immediately, a
// running one has its context canceled (the engine stops at the next
// shard boundary). Canceling a finished job fails with ErrJobDone.
func (s *Service) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobStatus{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	switch j.state {
	case StatePending:
		for i, q := range s.queue {
			if q == j {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		j.state = StateCanceled
		j.errMsg = "canceled"
		j.finishedAt = time.Now().UTC()
		if err := s.persistLocked(j); err != nil {
			s.warnf("job %s: %v", j.id, err)
		}
		st := s.statusLocked(j)
		s.mu.Unlock()
		j.b.close(s.stateEvent(j))
		return st, nil
	case StateRunning:
		j.userCancel = true
		cancel := j.cancel
		st := s.statusLocked(j)
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return st, nil
	default:
		st := s.statusLocked(j)
		s.mu.Unlock()
		return st, fmt.Errorf("%w: %s is %s", ErrJobDone, id, st.State)
	}
}

// Result returns the completed job's Result document — the exact bytes
// core.Result.WriteJSON produced, so they are directly comparable to an
// sfirun artifact.
func (s *Service) Result(id string) ([]byte, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	var st JobState
	if ok {
		st = j.state
	}
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	if st != StateCompleted {
		return nil, fmt.Errorf("%w: %s is %s", ErrJobNotDone, id, st)
	}
	data, err := os.ReadFile(s.resultPath(id))
	if err != nil {
		return nil, fmt.Errorf("service: reading result: %w", err)
	}
	return data, nil
}

// Trace returns a terminal job's JSONL trace bytes. While the job is
// pending or running the trace file is still being appended to, so the
// call answers ErrJobNotDone; failed and canceled jobs serve whatever
// prefix was recorded (useful for post-mortems). For a completed
// federated job this is the merged global trace spliced from the member
// part traces.
func (s *Service) Trace(id string) ([]byte, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	var st JobState
	if ok {
		st = j.state
	}
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	if !st.terminal() {
		return nil, fmt.Errorf("%w: %s is %s (the trace is complete only once the job is terminal)", ErrJobNotDone, id, st)
	}
	data, err := os.ReadFile(s.tracePath(id))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s recorded no trace", ErrUnknownJob, id)
		}
		return nil, fmt.Errorf("service: reading trace: %w", err)
	}
	return data, nil
}

// Subscribe attaches to a job's live event stream. The returned channel
// yields sequenced marshaled telemetry/job-state event lines and closes
// when the job reaches a terminal state (or the service shuts down);
// cancel detaches early. since > 0 resumes after that sequence number
// (an SSE client's Last-Event-ID), replaying the retained newer frames;
// 0 subscribes fresh.
func (s *Service) Subscribe(id string, since uint64) (<-chan frame, func(), error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	ch, cancel := j.b.subscribeSince(since)
	return ch, cancel, nil
}

// Draining reports whether Shutdown has begun.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains the service: new submissions are rejected, every
// running campaign is canceled (each writes a final checkpoint at its
// next shard boundary), and Shutdown waits for them to settle or ctx to
// expire. Pending and interrupted jobs stay on disk as pending; a new
// Service over the same directory resumes them.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	s.mu.Unlock()
	if first {
		s.cancel() // cancels every job context
		go func() {
			s.wg.Wait()
			close(s.drained)
		}()
	}
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// progressSink captures live progress for status queries and metrics,
// and republishes each event to SSE subscribers. It runs on the
// engine's dispatcher goroutine, so it only snapshots and enqueues.
func (s *Service) progressSink(j *job) core.ProgressSink {
	return func(p core.Progress) {
		j.pmu.Lock()
		j.prog = p
		j.hasProg = true
		j.pmu.Unlock()
		j.b.publishJSON(telemetry.FromProgress(j.id, p))
	}
}

// traceSink republishes engine trace events to SSE subscribers.
func (s *Service) traceSink(j *job) core.TraceSink {
	return func(ev core.TraceEvent) {
		j.b.publishJSON(telemetry.FromTrace(j.id, ev))
	}
}

// traceBuffer sizes each job tracer's event queue; events arrive at
// shard cadence, so this absorbs any realistic disk stall.
const traceBuffer = 1024

// openTrace starts the job's on-disk JSONL trace, replacing any earlier
// attempt's file (a resumed run restarts the trace; its campaign_start
// Restored field records the checkpointed prefix). A federated part job
// opens with the part_meta correlation prologue, written synchronously
// so it precedes every engine event. Trace failures degrade to a
// warning — observability must never fail a campaign — so the returned
// tracer may be nil; close is always safe to call.
func (s *Service) openTrace(j *job) (tr *telemetry.Tracer, close func()) {
	f, err := os.Create(s.tracePath(j.id))
	if err != nil {
		s.warnf("job %s: trace: %v", j.id, err)
		return nil, func() {}
	}
	if j.spec.FederatedJob != "" && j.spec.FederatedPart != nil {
		pm := telemetry.PartMeta(j.spec.Name, j.spec.FederatedJob, *j.spec.FederatedPart,
			j.spec.FederatedMember, j.spec.Ranges)
		if data, err := json.Marshal(pm); err == nil {
			if _, err := f.Write(append(data, '\n')); err != nil {
				s.warnf("job %s: trace: %v", j.id, err)
			}
		}
	}
	tr = telemetry.NewTracer(f, traceBuffer)
	return tr, func() {
		if err := tr.Close(); err != nil {
			s.warnf("job %s: trace: %v", j.id, err)
		}
		if err := f.Close(); err != nil {
			s.warnf("job %s: trace: %v", j.id, err)
		}
	}
}

func (s *Service) registerServiceMetrics() {
	s.submitted = s.reg.Counter("sfid_submitted_total", "Campaigns accepted for scheduling.")
	s.rejected = s.reg.Counter("sfid_rejected_total", "Submissions rejected by queue backpressure.")
	s.retries = s.reg.Counter("sfid_retries_total", "Fleet RPC retries scheduled by the resilience layer.")
	s.specParts = s.reg.Counter("sfid_speculative_parts_total", "Backup copies dispatched for slow or stalled federated draw windows.")
	s.stateWriteErrs = s.reg.Counter("sfid_state_write_errors_total", "Durable-state atomic write failures (job records, member registry, federation documents, results).")
	s.reg.GaugeFunc("sfid_workers_total", "Size of the shared worker-token pool.",
		func() float64 { return float64(s.cfg.TotalWorkers) })
	s.reg.GaugeFunc("sfid_workers_free", "Worker tokens currently unclaimed.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(s.free) })
	s.reg.GaugeFunc("sfid_queue_length", "Jobs waiting in the pending queue.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(len(s.queue)) })
	s.reg.GaugeFunc("sfid_members_alive", "Registered member daemons within the heartbeat timeout (coordinator only).",
		func() float64 { return float64(len(s.aliveMembers())) })
	s.reg.CounterFunc("sfid_sse_dropped_total", "Interior SSE frames dropped to slow subscribers, summed across jobs.",
		func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			var n int64
			for _, j := range s.order {
				n += j.b.drops()
			}
			return n
		})
	for _, st := range []JobState{StatePending, StateRunning, StateCompleted, StateFailed, StateCanceled} {
		st := st
		s.reg.LabeledGaugeFunc("sfid_jobs", "Jobs by lifecycle state.",
			func() float64 {
				s.mu.Lock()
				defer s.mu.Unlock()
				n := 0
				for _, j := range s.order {
					if j.state == st {
						n++
					}
				}
				return float64(n)
			}, telemetry.Label{Name: "state", Value: string(st)})
	}
}

// registerJobMetrics adds the job's labeled per-campaign series. Jobs
// are never unregistered: a campaign's final tallies stay scrapeable
// for the daemon's lifetime, which is what dashboards want.
func (s *Service) registerJobMetrics(j *job) {
	label := telemetry.Label{Name: "campaign", Value: j.id}
	s.reg.LabeledGaugeFunc("sfid_campaign_done_injections", "Injections tallied by the campaign.",
		func() float64 { done, _, _ := s.tallies(j); return float64(done) }, label)
	s.reg.LabeledGaugeFunc("sfid_campaign_critical", "Critical faults observed by the campaign.",
		func() float64 { _, crit, _ := s.tallies(j); return float64(crit) }, label)
	s.reg.LabeledGaugeFunc("sfid_campaign_rate", "Campaign throughput in injections per second.",
		func() float64 { _, _, rate := s.tallies(j); return rate }, label)
}

// tallies returns the freshest (done, critical, rate) for a job: the
// live progress snapshot while running, the persisted final tallies
// otherwise.
func (s *Service) tallies(j *job) (done, critical int64, rate float64) {
	s.mu.Lock()
	running := j.state == StateRunning
	done, critical = j.done, j.critical
	s.mu.Unlock()
	if running {
		j.pmu.Lock()
		if j.hasProg {
			done, critical, rate = j.prog.Done, j.prog.Critical, j.prog.Rate
		}
		j.pmu.Unlock()
	}
	return done, critical, rate
}
