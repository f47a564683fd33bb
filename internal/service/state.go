package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"cnnsfi/internal/core"
)

// State directory layout — one triplet per job, keyed by job ID:
//
//	<dir>/<id>.job.json     job record (spec + lifecycle state)
//	<dir>/<id>.ckpt[.bak]   engine checkpoint v2 (while interrupted)
//	<dir>/<id>.result.json  final Result document (once completed)
//	<dir>/<id>.trace.jsonl  JSONL campaign trace (rebuilt on each start)
//
// The job record is the scheduler's durable state; the checkpoint is
// the engine's. Between the two, a killed daemon loses at most the
// injections evaluated since the last periodic checkpoint (written
// every 10 s of wall time) — and
// re-evaluates none of the checkpointed prefix on restart.
//
// A coordinator additionally keeps <dir>/members.json (the durable
// member registry) and, per federated job, <id>.fed.json plus the
// fetched <id>.partK.result.json / <id>.partK.trace.jsonl part
// documents; the part traces are spliced into <id>.trace.jsonl when the
// merge completes. A window the coordinator evaluates itself is an
// ordinary job with files of its own.

func (s *Service) jobPath(id string) string {
	return filepath.Join(s.cfg.Dir, id+".job.json")
}
func (s *Service) checkpointPath(id string) string {
	return filepath.Join(s.cfg.Dir, id+".ckpt")
}
func (s *Service) resultPath(id string) string {
	return filepath.Join(s.cfg.Dir, id+".result.json")
}
func (s *Service) tracePath(id string) string {
	return filepath.Join(s.cfg.Dir, id+".trace.jsonl")
}

// atomicWrite commits data to path via the tmp + rename idiom every
// durable-state file uses. Failures (ENOSPC, permissions, a vanished
// state dir) bump sfid_state_write_errors_total so a quietly read-only
// daemon is visible on dashboards, not just in its log.
func (s *Service) atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	err := os.WriteFile(tmp, data, 0o644)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil && s.stateWriteErrs != nil {
		s.stateWriteErrs.Inc()
	}
	return err
}

// jobRecord is the on-disk schema of one job. Timestamps are UTC;
// tallies are the last persisted values (live progress is not flushed
// per event — the checkpoint holds the authoritative cursor).
type jobRecord struct {
	ID          string       `json:"id"`
	Seq         int64        `json:"seq"`
	Spec        CampaignSpec `json:"spec"`
	State       JobState     `json:"state"`
	SubmittedAt time.Time    `json:"submitted_at"`
	StartedAt   time.Time    `json:"started_at"`
	FinishedAt  time.Time    `json:"finished_at"`
	Error       string       `json:"error,omitempty"`
	Planned     int64        `json:"planned_injections,omitempty"`
	Done        int64        `json:"done_injections,omitempty"`
	Critical    int64        `json:"critical,omitempty"`
	Abandoned   int64        `json:"abandoned_lanes,omitempty"`
	Warnings    []string     `json:"warnings,omitempty"`
}

// persistLocked writes j's record atomically (tmp + rename). Caller
// holds s.mu.
func (s *Service) persistLocked(j *job) error {
	rec := jobRecord{
		ID:          j.id,
		Seq:         j.seq,
		Spec:        j.spec,
		State:       j.state,
		SubmittedAt: j.submittedAt,
		StartedAt:   j.startedAt,
		FinishedAt:  j.finishedAt,
		Error:       j.errMsg,
		Planned:     j.planned,
		Done:        j.done,
		Critical:    j.critical,
		Abandoned:   j.abandoned,
		Warnings:    j.warnings,
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return fmt.Errorf("service: encoding job %s: %w", j.id, err)
	}
	if err := s.atomicWrite(s.jobPath(j.id), append(data, '\n')); err != nil {
		// Surface the failure on the job itself (deduplicated against an
		// identical immediately-preceding notice): the warning rides in
		// memory and reaches disk with the next successful persist.
		msg := fmt.Sprintf("state write failed: %v", err)
		if n := len(j.warnings); n == 0 || j.warnings[n-1] != msg {
			j.warnings = append(j.warnings, msg)
		}
		return fmt.Errorf("service: writing job %s: %w", j.id, err)
	}
	return nil
}

// recover loads every persisted job from the state directory. Terminal
// jobs become queryable as-is; pending and interrupted-while-running
// jobs re-enter the queue (their checkpoints make the restart
// re-evaluate nothing). Unreadable records are skipped with a warning —
// one corrupt file must not take the whole fleet down.
func (s *Service) recover() error {
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return fmt.Errorf("service: scanning state dir: %w", err)
	}
	var recovered []*job
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".job.json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.cfg.Dir, name))
		if err != nil {
			s.warnf("recover: %v", err)
			continue
		}
		var rec jobRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			s.warnf("recover: %s: %v", name, err)
			continue
		}
		if rec.ID == "" || rec.ID+".job.json" != name {
			s.warnf("recover: %s: record id %q does not match filename", name, rec.ID)
			continue
		}
		j := &job{
			id:          rec.ID,
			seq:         rec.Seq,
			spec:        rec.Spec,
			state:       rec.State,
			submittedAt: rec.SubmittedAt,
			startedAt:   rec.StartedAt,
			finishedAt:  rec.FinishedAt,
			errMsg:      rec.Error,
			planned:     rec.Planned,
			done:        rec.Done,
			critical:    rec.Critical,
			abandoned:   rec.Abandoned,
			warnings:    rec.Warnings,
			b:           newBroadcaster(),
		}
		if j.state == StateRunning {
			// The previous daemon died (or drained) mid-campaign: requeue.
			j.state = StatePending
			j.startedAt = time.Time{}
		}
		if j.state == StatePending {
			if info, err := core.ReadCheckpointInfo(s.checkpointPath(j.id)); err == nil {
				j.restored = info.Injections
				j.done = info.Injections
			}
		}
		recovered = append(recovered, j)
	}
	sort.Slice(recovered, func(i, k int) bool { return recovered[i].seq < recovered[k].seq })
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range recovered {
		if j.seq >= s.nextSeq {
			s.nextSeq = j.seq + 1
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j)
		s.registerJobMetrics(j)
		if j.state == StatePending {
			s.enqueueLocked(j)
			if err := s.persistLocked(j); err != nil {
				s.warnf("recover: %v", err)
			}
		} else {
			j.b.close(s.stateEventLocked(j))
		}
	}
	return nil
}

// writeResult persists the final Result document atomically, in the
// exact WriteJSON byte form sfirun produces.
func (s *Service) writeResult(id string, res *core.Result) error {
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return fmt.Errorf("service: writing result: %w", err)
	}
	if err := s.atomicWrite(s.resultPath(id), buf.Bytes()); err != nil {
		return fmt.Errorf("service: committing result: %w", err)
	}
	return nil
}

// JobStatus is the externally visible snapshot of one job — the JSON
// body of the status endpoints and of sfictl status/list output.
type JobStatus struct {
	ID    string       `json:"id"`
	Name  string       `json:"name"`
	State JobState     `json:"state"`
	Spec  CampaignSpec `json:"spec"`
	// QueuePosition is the 1-based place in the pending queue; 0 once
	// the job has left it.
	QueuePosition int `json:"queue_position,omitempty"`
	// SubmittedAt/StartedAt/FinishedAt are UTC; the zero time
	// ("0001-01-01T00:00:00Z") means "not yet".
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at"`
	FinishedAt  time.Time `json:"finished_at"`
	// Error is the failure (or cancellation) reason for terminal states.
	Error string `json:"error,omitempty"`
	// Planned is the plan's total injection count (0 until the job first
	// starts); Done/Critical are the freshest tallies; Restored is the
	// checkpointed prefix the latest start resumed without re-evaluating.
	Planned  int64   `json:"planned_injections,omitempty"`
	Done     int64   `json:"done_injections"`
	Critical int64   `json:"critical"`
	Rate     float64 `json:"rate,omitempty"`
	Restored int64   `json:"restored_injections,omitempty"`
	// AbandonedLanes counts the watchdog-abandoned experiment lanes the
	// job accumulated (summed across members for a federated job).
	AbandonedLanes int64 `json:"abandoned_lanes,omitempty"`
	// Warnings are the job's operational notices — today, a federated
	// coordinator's range reassignments and per-member abandoned-lane
	// reports.
	Warnings []string `json:"warnings,omitempty"`
}

// statusLocked snapshots j. Caller holds s.mu.
func (s *Service) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID:          j.id,
		Name:        j.spec.Name,
		State:       j.state,
		Spec:        j.spec,
		SubmittedAt: j.submittedAt,
		StartedAt:   j.startedAt,
		FinishedAt:  j.finishedAt,
		Error:       j.errMsg,
		Planned:     j.planned,
		Done:        j.done,
		Critical:    j.critical,
		Restored:    j.restored,
	}
	st.AbandonedLanes = j.abandoned
	st.Warnings = append([]string(nil), j.warnings...)
	if j.state == StatePending {
		for i, q := range s.queue {
			if q == j {
				st.QueuePosition = i + 1
				break
			}
		}
	}
	if j.state == StateRunning {
		j.pmu.Lock()
		if j.hasProg {
			st.Done = j.prog.Done
			st.Critical = j.prog.Critical
			st.Rate = j.prog.Rate
			if j.prog.AbandonedLanes > st.AbandonedLanes {
				st.AbandonedLanes = j.prog.AbandonedLanes
			}
		}
		j.pmu.Unlock()
	}
	return st
}

// JobStateEvent is the service-level SSE event marking a lifecycle
// transition; engine progress and trace events use the telemetry.Event
// schema. Kind is always "job_state".
type JobStateEvent struct {
	Kind     string   `json:"kind"`
	ID       string   `json:"id"`
	Name     string   `json:"name"`
	State    JobState `json:"state"`
	Error    string   `json:"error,omitempty"`
	Planned  int64    `json:"planned_injections,omitempty"`
	Done     int64    `json:"done_injections"`
	Critical int64    `json:"critical"`
}

// KindJobState is the Kind value of JobStateEvent.
const KindJobState = "job_state"

func (s *Service) stateEvent(j *job) JobStateEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stateEventLocked(j)
}

func (s *Service) stateEventLocked(j *job) JobStateEvent {
	return JobStateEvent{
		Kind:     KindJobState,
		ID:       j.id,
		Name:     j.spec.Name,
		State:    j.state,
		Error:    j.errMsg,
		Planned:  j.planned,
		Done:     j.done,
		Critical: j.critical,
	}
}
