package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cnnsfi/internal/core"
	"cnnsfi/internal/telemetry"
)

// This file is the federation layer: a coordinator sfid splits one
// statistical plan into contiguous per-stratum draw windows
// (core.SplitPlan), runs each window as a normal ranged job on a member
// sfid, and folds the members' partial Results back together in draw
// order (core.MergeRangeResults) — so the federated Result is
// byte-identical to a single-node run of the same (plan, seed).
//
// Durability: everything the merge depends on is on disk — the
// assignment document <id>.fed.json and one <id>.partK.result.json per
// fetched member result — and so is the member registry (members.json,
// rewritten on every registration), so a restarted coordinator knows
// its fleet immediately and member identities survive the restart.
// Members that re-register anyway (the heartbeat-404 fallback, kept for
// registries predating the durable file) are matched by URL and keep
// their IDs. A restarted coordinator therefore resumes the merge with
// zero re-evaluated draws: member jobs kept running during the outage,
// and the coordinator re-attaches to them by the URL + job ID stored in
// the assignment document (re-registration is not required for
// polling).
//
// Failure model: a member that stops heartbeating past
// Config.MemberTimeout *and* stops answering polls is declared dead;
// its unfetched windows are reassigned to live members (each reassigned
// window restarts from its beginning — member-local checkpoints do not
// travel). A member job that *fails* (as opposed to becoming
// unreachable) fails the federated job: the same spec would fail
// anywhere, so reassignment would loop. Draws are never double-tallied:
// exactly one fetched Result per window enters the merge, and the merge
// itself rejects overlaps and gaps.

// Federation sentinels; the HTTP layer maps ErrNotCoordinator to 409
// and ErrUnknownMember to 404 (a member receiving 404 on heartbeat
// re-registers, which is how the in-memory registry survives
// coordinator restarts).
var (
	ErrNotCoordinator = errors.New("not a coordinator")
	ErrUnknownMember  = errors.New("unknown member")
)

// member is one registered member daemon (coordinator-side state,
// guarded by Service.mu).
type member struct {
	id       string
	name     string
	url      string
	joinedAt time.Time
	lastSeen time.Time
}

// MemberStatus is the externally visible snapshot of one registered
// member — the JSON body of the member endpoints and of sfictl members.
type MemberStatus struct {
	// ID is the coordinator-assigned member identity; heartbeats are
	// keyed on it.
	ID string `json:"id"`
	// Name is the member's self-reported display label.
	Name string `json:"name,omitempty"`
	// URL is the member's advertised base URL; the coordinator submits
	// and polls member jobs against it.
	URL string `json:"url"`
	// JoinedAt / LastSeen are UTC registration and latest-heartbeat
	// times.
	JoinedAt time.Time `json:"joined_at"`
	LastSeen time.Time `json:"last_seen"`
	// Alive reports whether the member heartbeat is within the
	// coordinator's member timeout; dead members get their unfetched
	// draw windows reassigned.
	Alive bool `json:"alive"`
}

// memberRegistration is the JSON body of POST /api/v1/members.
type memberRegistration struct {
	URL  string `json:"url"`
	Name string `json:"name,omitempty"`
}

func (s *Service) memberStatusLocked(m *member) MemberStatus {
	return MemberStatus{
		ID:       m.id,
		Name:     m.name,
		URL:      m.url,
		JoinedAt: m.joinedAt,
		LastSeen: m.lastSeen,
		Alive:    time.Since(m.lastSeen) <= s.cfg.MemberTimeout,
	}
}

// RegisterMember adds (or refreshes) one member daemon. Registration is
// idempotent on the advertised URL: re-registering refreshes the
// heartbeat and display name but keeps the member identity stable.
func (s *Service) RegisterMember(url, name string) (MemberStatus, error) {
	if !s.cfg.Coordinator {
		return MemberStatus{}, ErrNotCoordinator
	}
	if url == "" {
		return MemberStatus{}, fmt.Errorf("%w: member url is required", ErrInvalidSpec)
	}
	now := time.Now().UTC()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.members {
		if m.url == url {
			m.lastSeen = now
			if name != "" {
				m.name = name
			}
			s.persistMembersLocked()
			return s.memberStatusLocked(m), nil
		}
	}
	s.memberSeq++
	m := &member{
		id:       fmt.Sprintf("m%04d", s.memberSeq),
		name:     name,
		url:      url,
		joinedAt: now,
		lastSeen: now,
	}
	s.members[m.id] = m
	s.persistMembersLocked()
	return s.memberStatusLocked(m), nil
}

// memberRecord is the on-disk schema of one registry entry
// (members.json).
type memberRecord struct {
	ID       string    `json:"id"`
	Name     string    `json:"name,omitempty"`
	URL      string    `json:"url"`
	JoinedAt time.Time `json:"joined_at"`
	LastSeen time.Time `json:"last_seen"`
}

func (s *Service) membersPath() string {
	return filepath.Join(s.cfg.Dir, "members.json")
}

// persistMembersLocked rewrites the durable member registry atomically
// (tmp + rename). It runs at registration frequency, not heartbeat
// frequency, and failures degrade to a warning — a full disk must not
// reject a member. Caller holds s.mu.
func (s *Service) persistMembersLocked() {
	recs := make([]memberRecord, 0, len(s.members))
	for _, m := range s.members {
		recs = append(recs, memberRecord{ID: m.id, Name: m.name, URL: m.url, JoinedAt: m.joinedAt, LastSeen: m.lastSeen})
	}
	sort.Slice(recs, func(i, k int) bool { return recs[i].ID < recs[k].ID })
	data, err := json.MarshalIndent(recs, "", " ")
	if err != nil {
		s.warnf("members: %v", err)
		return
	}
	if err := s.atomicWrite(s.membersPath(), append(data, '\n')); err != nil {
		s.warnf("members: %v", err)
	}
}

// loadMembers restores the durable member registry at startup. Loaded
// members keep their IDs (so heartbeats from before the restart still
// resolve) but report dead until their next heartbeat refreshes
// lastSeen. Unreadable registries are skipped with a warning — members
// re-register through the heartbeat-404 fallback.
func (s *Service) loadMembers() {
	data, err := os.ReadFile(s.membersPath())
	if err != nil {
		if !os.IsNotExist(err) {
			s.warnf("members: %v", err)
		}
		return
	}
	var recs []memberRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		s.warnf("members: %s: %v", s.membersPath(), err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range recs {
		if r.ID == "" || r.URL == "" {
			continue
		}
		s.members[r.ID] = &member{id: r.ID, name: r.Name, url: r.URL, joinedAt: r.JoinedAt, lastSeen: r.LastSeen}
		var n int64
		if _, err := fmt.Sscanf(r.ID, "m%d", &n); err == nil && n > s.memberSeq {
			s.memberSeq = n
		}
	}
}

// MemberHeartbeat refreshes one member's liveness. An unknown ID fails
// with ErrUnknownMember (mapped to 404), which tells the member to
// re-register — the recovery path after a coordinator restart.
func (s *Service) MemberHeartbeat(id string) (MemberStatus, error) {
	if !s.cfg.Coordinator {
		return MemberStatus{}, ErrNotCoordinator
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.members[id]
	if !ok {
		return MemberStatus{}, fmt.Errorf("%w: %q", ErrUnknownMember, id)
	}
	m.lastSeen = time.Now().UTC()
	return s.memberStatusLocked(m), nil
}

// Members lists every registered member, sorted by ID.
func (s *Service) Members() ([]MemberStatus, error) {
	if !s.cfg.Coordinator {
		return nil, ErrNotCoordinator
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]MemberStatus, 0, len(s.members))
	for _, m := range s.members {
		out = append(out, s.memberStatusLocked(m))
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out, nil
}

// aliveMembers snapshots the live members, sorted by ID so assignment
// order is deterministic for a given registry state.
func (s *Service) aliveMembers() []MemberStatus {
	all, err := s.Members()
	if err != nil {
		return nil
	}
	alive := all[:0]
	for _, m := range all {
		if m.Alive {
			alive = append(alive, m)
		}
	}
	return alive
}

// memberAliveByURL reports whether the registry currently considers the
// member advertising url alive. An unregistered URL counts as dead —
// after a coordinator restart a member that never re-registered and no
// longer answers polls must be treated as gone.
func (s *Service) memberAliveByURL(url string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.members {
		if m.url == url {
			return time.Since(m.lastSeen) <= s.cfg.MemberTimeout
		}
	}
	return false
}

// fedPart is one draw window's assignment state inside the durable
// federation document.
type fedPart struct {
	// Ranges is the window of each plan stratum this part covers.
	Ranges []core.DrawRange `json:"ranges"`
	// MemberURL / MemberJob locate the member job evaluating the part;
	// empty while unassigned (or after a reassignment reset). MemberName
	// is the member's display label at assignment time — the identity
	// stamped on the part's trace events and fleet-view rows.
	MemberURL  string `json:"member_url,omitempty"`
	MemberJob  string `json:"member_job,omitempty"`
	MemberName string `json:"member_name,omitempty"`
	// Fetched marks that the part's Result document is on disk
	// (partPath) and will enter the merge; Done / Critical carry its
	// final tallies for progress reporting.
	Fetched  bool  `json:"fetched,omitempty"`
	Done     int64 `json:"done,omitempty"`
	Critical int64 `json:"critical,omitempty"`
	// AbandonedLanes is the member job's final watchdog-abandoned lane
	// count, surfaced in the coordinator's merged warnings.
	AbandonedLanes int64 `json:"abandoned_lanes,omitempty"`
	// Reassigned counts how many dead members this part was moved off.
	Reassigned int `json:"reassigned,omitempty"`
	// SpecMemberURL / SpecMemberJob / SpecMemberName locate the
	// speculative duplicate of a straggling window while one is in
	// flight. Exactly one of the two copies enters the merge — the first
	// to complete — and the other is canceled before merging, so the
	// merged Result cannot double-tally a draw.
	SpecMemberURL  string `json:"spec_member_url,omitempty"`
	SpecMemberJob  string `json:"spec_member_job,omitempty"`
	SpecMemberName string `json:"spec_member_name,omitempty"`
	// Local marks a window running degraded on the coordinator itself
	// (no placeable member); it persists so a restarted coordinator
	// resumes the local run from its part checkpoint.
	Local bool `json:"local,omitempty"`
}

// fedDoc is the durable merge state of one federated job
// (<id>.fed.json). It is persisted after every mutation, so a restarted
// coordinator re-attaches to every member job and re-evaluates nothing.
// (The one unavoidable crash window: a crash between a member-submit
// succeeding and the document persisting leaves an orphan member job —
// its draws may be evaluated twice on the fleet, but never tallied
// twice, because only the document's own job enters the merge.)
type fedDoc struct {
	ID          string    `json:"id"`
	Fingerprint uint64    `json:"plan_fingerprint"`
	Parts       []fedPart `json:"parts,omitempty"`
}

func (s *Service) fedPath(id string) string {
	return filepath.Join(s.cfg.Dir, id+".fed.json")
}
func (s *Service) partPath(id string, k int) string {
	return filepath.Join(s.cfg.Dir, fmt.Sprintf("%s.part%d.result.json", id, k))
}
func (s *Service) partTracePath(id string, k int) string {
	return filepath.Join(s.cfg.Dir, fmt.Sprintf("%s.part%d.trace.jsonl", id, k))
}
func (s *Service) partCheckpointPath(id string, k int) string {
	return filepath.Join(s.cfg.Dir, fmt.Sprintf("%s.part%d.ckpt", id, k))
}

// persistFed writes the federation document atomically (tmp + rename).
func (s *Service) persistFed(fed *fedDoc) error {
	data, err := json.MarshalIndent(fed, "", " ")
	if err != nil {
		return fmt.Errorf("service: encoding federation state %s: %w", fed.ID, err)
	}
	if err := s.atomicWrite(s.fedPath(fed.ID), append(data, '\n')); err != nil {
		return fmt.Errorf("service: writing federation state %s: %w", fed.ID, err)
	}
	return nil
}

// loadOrInitFed restores the job's durable federation document, or
// starts a fresh one. A document written for a different plan
// fingerprint is discarded with a warning (the spec on disk is the
// job's identity; a fingerprint mismatch means the document is stale).
func (s *Service) loadOrInitFed(j *job, fingerprint uint64) *fedDoc {
	data, err := os.ReadFile(s.fedPath(j.id))
	if err == nil {
		var fed fedDoc
		if jerr := json.Unmarshal(data, &fed); jerr == nil && fed.Fingerprint == fingerprint {
			return &fed
		}
		s.warnf("job %s: discarding stale federation state %s", j.id, s.fedPath(j.id))
	}
	return &fedDoc{ID: j.id, Fingerprint: fingerprint}
}

// removeFedState deletes the federation document and the fetched part
// results and traces — the cleanup after a completed merge (the spliced
// merged trace has subsumed the part traces by then) or a user
// cancellation.
func (s *Service) removeFedState(j *job, parts int) {
	os.Remove(s.fedPath(j.id))
	for k := 0; k < parts; k++ {
		os.Remove(s.partPath(j.id, k))
		os.Remove(s.partTracePath(j.id, k))
		os.Remove(s.partCheckpointPath(j.id, k))
		os.Remove(s.partCheckpointPath(j.id, k) + ".bak")
	}
}

// appendWarning records one operational notice on the job and persists
// it.
func (s *Service) appendWarning(j *job, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	s.warnf("job %s: %s", j.id, msg)
	s.mu.Lock()
	j.warnings = append(j.warnings, msg)
	if err := s.persistLocked(j); err != nil {
		s.warnf("job %s: %v", j.id, err)
	}
	s.mu.Unlock()
}

// placeableMembers are the members a part can be dispatched to right
// now: alive by heartbeat *and* with a non-tripped circuit breaker.
// Skipping open breakers at placement time keeps a flapping member
// from collecting fresh assignments it will immediately strand.
func (s *Service) placeableMembers() []MemberStatus {
	alive := s.aliveMembers()
	out := alive[:0]
	for _, m := range alive {
		if s.fed.available(m.URL) {
			out = append(out, m)
		}
	}
	return out
}

// fedRuntime is the in-memory (non-durable) per-run state of one
// federated job: round-robin assignment position, per-part progress
// health for straggler detection, live degraded-mode local runs, and
// the fleet-wide placement-outage clock.
type fedRuntime struct {
	assignSeq int
	health    []partHealth
	local     map[int]*localRun
	// unplacedSince is when the coordinator last began seeing zero
	// placeable members (zero while any member is placeable).
	unplacedSince time.Time
}

// partHealth tracks one part's progress rate: an EWMA of per-cycle
// done-injection deltas, frozen once the part is fetched so completed
// parts keep anchoring the fleet median.
type partHealth struct {
	lastDone int64
	rate     float64
	slow     int // consecutive cycles below the straggler threshold
}

// localRun is one degraded-mode part running on the coordinator's own
// engine. done closes when the engine returns; prog is the live
// progress snapshot for the fleet view.
type localRun struct {
	done chan struct{}
	res  *core.Result
	err  error
	mu   sync.Mutex
	prog core.Progress
}

func (lr *localRun) progress() core.Progress {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	return lr.prog
}

// runFederated drives one federated job end to end: split the plan
// across the live fleet, keep every window assigned to a placeable
// member (or, degraded, to the local engine), fetch finished windows,
// and merge them in draw order. It owns the job's terminal transition
// exactly like runJob does.
func (s *Service) runFederated(ctx context.Context, j *job) {
	_, plan, err := buildCampaign(j.spec, s.cfg.BuildEvaluator)
	if err != nil {
		s.finish(j, StateFailed, err.Error(), 0, 0)
		return
	}
	s.mu.Lock()
	j.planned = plan.TotalInjections()
	if perr := s.persistLocked(j); perr != nil {
		s.warnf("job %s: %v", j.id, perr)
	}
	s.mu.Unlock()

	fed := s.loadOrInitFed(j, core.PlanFingerprint(plan))
	ticker := time.NewTicker(s.cfg.FederationPoll)
	defer ticker.Stop()
	rt := &fedRuntime{local: map[int]*localRun{}}
	for {
		done, err := s.fedStep(ctx, j, plan, fed, rt)
		if err != nil {
			s.finish(j, StateFailed, err.Error(), s.fedDone(j), s.fedCritical(j))
			return
		}
		if done {
			return
		}
		select {
		case <-ctx.Done():
			if s.isUserCancel(j) {
				// Best-effort: stop the member jobs (primaries and any
				// speculative copies), wait out the local runs, then drop
				// the merge state — an individually canceled job never
				// resumes.
				for _, p := range fed.Parts {
					if p.Fetched {
						continue
					}
					if p.MemberJob != "" && !p.Local {
						s.cancelMemberJob(p.MemberURL, p.MemberJob)
					}
					if p.SpecMemberJob != "" {
						s.cancelMemberJob(p.SpecMemberURL, p.SpecMemberJob)
					}
				}
				for _, lr := range rt.local {
					<-lr.done // the engine stops at its next shard boundary
				}
				s.removeFedState(j, len(fed.Parts))
				s.finish(j, StateCanceled, "canceled", s.fedDone(j), s.fedCritical(j))
				return
			}
			// Coordinator shutdown: the merge state is durable, the member
			// jobs keep running, and local degraded parts checkpointed; the
			// next daemon run re-attaches and resumes.
			s.repending(j, s.fedDone(j), s.fedCritical(j))
			return
		case <-ticker.C:
		}
	}
}

// cancelMemberJob best-effort stops one member job (the cancel path
// and the speculation loser). A short deadline bounds the retries —
// an unreachable member's job dies with the member anyway.
func (s *Service) cancelMemberJob(memberURL, jobID string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*s.cfg.MemberRPCTimeout)
	defer cancel()
	_ = s.fed.api(ctx, memberURL, http.MethodDelete, "/api/v1/campaigns/"+jobID, nil, nil)
}

// fedStep advances the federated job one poll cycle. It returns done
// when the job reached a terminal transition (completed), and a non-nil
// error for unrecoverable failures.
func (s *Service) fedStep(ctx context.Context, j *job, plan *core.Plan, fed *fedDoc, rt *fedRuntime) (bool, error) {
	placeable := s.placeableMembers()
	if len(placeable) > 0 {
		rt.unplacedSince = time.Time{}
	} else if rt.unplacedSince.IsZero() {
		rt.unplacedSince = time.Now()
	}
	degraded := len(placeable) == 0 && s.cfg.DegradedAfter >= 0 &&
		time.Since(rt.unplacedSince) >= s.cfg.DegradedAfter

	// Split once, by the placeable fleet size at first sighting — or,
	// when the placement outage outlasts DegradedAfter before any fleet
	// was ever seen, into a single window the coordinator runs itself.
	if fed.Parts == nil {
		n := len(placeable)
		if n == 0 {
			if !degraded {
				return false, nil // no fleet yet; keep waiting
			}
			n = 1
		}
		parts, err := core.SplitPlan(plan, n)
		if err != nil {
			return false, err
		}
		fed.Parts = make([]fedPart, len(parts))
		for k, ranges := range parts {
			fed.Parts[k] = fedPart{Ranges: ranges}
		}
		if err := s.persistFed(fed); err != nil {
			return false, err
		}
	}
	if len(rt.health) != len(fed.Parts) {
		rt.health = make([]partHealth, len(fed.Parts))
	}

	parts := make([]FleetPart, len(fed.Parts))
	for k := range fed.Parts {
		p := &fed.Parts[k]
		parts[k] = FleetPart{
			Job:         j.id,
			Part:        k,
			Member:      p.MemberName,
			MemberURL:   p.MemberURL,
			MemberJob:   p.MemberJob,
			Planned:     rangesLen(p.Ranges),
			Speculative: p.SpecMemberJob != "",
		}
		if p.Fetched {
			parts[k].Done = p.Done
			parts[k].Critical = p.Critical
			parts[k].Fetched = true
			parts[k].Speculative = false
			continue
		}
		if p.Local {
			if err := s.stepLocalPart(ctx, j, fed, k, rt, &parts[k]); err != nil {
				return false, err
			}
			continue
		}
		if p.MemberJob == "" {
			if degraded {
				// Degraded fallback: nothing has been placeable for longer
				// than DegradedAfter — run the orphaned window locally as an
				// ordinary checkpointed ranged job instead of stalling.
				p.Local = true
				if err := s.persistFed(fed); err != nil {
					return false, err
				}
				s.appendWarning(j, "part %d: no placeable member for %s; running the window locally on the coordinator (degraded mode)",
					k, time.Since(rt.unplacedSince).Round(time.Second))
				if err := s.stepLocalPart(ctx, j, fed, k, rt, &parts[k]); err != nil {
					return false, err
				}
				continue
			}
			if err := s.assignPart(ctx, j, fed, k, rt, placeable); err != nil {
				return false, err
			}
			parts[k].Member = fed.Parts[k].MemberName
			parts[k].MemberURL = fed.Parts[k].MemberURL
			parts[k].MemberJob = fed.Parts[k].MemberJob
			continue
		}
		var st JobStatus
		err := s.fed.api(ctx, p.MemberURL, http.MethodGet, "/api/v1/campaigns/"+p.MemberJob, nil, &st)
		if err != nil {
			var fatal *fatalMemberError
			if !errors.As(err, &fatal) && s.memberAliveByURL(p.MemberURL) {
				continue // transient (or breaker-open): the member still heartbeats
			}
			// Dead member (or a member that lost the job). A speculative
			// copy in flight is promoted to primary — its run is warm —
			// instead of a cold reassignment; otherwise the window resets
			// for reassignment. Nothing from the lost run is tallied, so no
			// draw can be counted twice.
			if p.SpecMemberJob != "" {
				s.appendWarning(j, "part %d: member %s unreachable or lost job %s; promoting the speculative copy on %s",
					k, p.MemberURL, p.MemberJob, p.SpecMemberURL)
				p.MemberURL, p.MemberJob, p.MemberName = p.SpecMemberURL, p.SpecMemberJob, p.SpecMemberName
				p.SpecMemberURL, p.SpecMemberJob, p.SpecMemberName = "", "", ""
				rt.health[k] = partHealth{}
				parts[k].Member, parts[k].MemberURL, parts[k].MemberJob = p.MemberName, p.MemberURL, p.MemberJob
				parts[k].Speculative = false
			} else {
				s.appendWarning(j, "part %d: member %s unreachable or lost job %s; reassigning its draw ranges (attempt %d)",
					k, p.MemberURL, p.MemberJob, p.Reassigned+1)
				p.MemberURL, p.MemberJob, p.MemberName = "", "", ""
				p.Reassigned++
				rt.health[k] = partHealth{}
				parts[k].Member, parts[k].MemberURL, parts[k].MemberJob = "", "", ""
			}
			if err := s.persistFed(fed); err != nil {
				return false, err
			}
			continue
		}
		switch st.State {
		case StateCompleted:
			if err := s.completePart(ctx, j, fed, k, st, false); err != nil {
				var fatal *fatalMemberError
				if errors.As(err, &fatal) {
					return false, err
				}
				continue // transient fetch failure: retry next cycle
			}
			parts[k].Done = fed.Parts[k].Done
			parts[k].Critical = fed.Parts[k].Critical
			parts[k].Fetched = true
			parts[k].Speculative = false
		case StateFailed, StateCanceled:
			// A failing spec fails everywhere; reassigning would loop.
			return false, fmt.Errorf("service: member %s job %s %s: %s",
				p.MemberURL, p.MemberJob, st.State, st.Error)
		default:
			parts[k].Done = st.Done
			parts[k].Critical = st.Critical
			parts[k].Rate = st.Rate
			// Health fold: EWMA of per-cycle done deltas, the straggler
			// detector's progress-rate signal.
			h := &rt.health[k]
			delta := st.Done - h.lastDone
			if delta < 0 {
				delta = 0
			}
			h.lastDone = st.Done
			h.rate = 0.5*h.rate + 0.5*float64(delta)
		}
		if p.SpecMemberJob != "" && !p.Fetched {
			if err := s.stepSpeculative(ctx, j, fed, k, &parts[k]); err != nil {
				return false, err
			}
		}
	}
	s.checkStragglers(ctx, j, fed, rt, placeable)
	allFetched := s.publishFedProgress(j, parts)
	if !allFetched {
		return false, nil
	}
	return true, s.mergeFederated(j, plan, fed)
}

// checkStragglers compares every running part's progress rate against
// the fleet median and speculatively re-dispatches persistent
// stragglers to a spare member. Fetched parts keep their final
// (frozen) rate in the median pool, so a two-part fleet can still
// recognize its slow half after the fast half finishes.
func (s *Service) checkStragglers(ctx context.Context, j *job, fed *fedDoc, rt *fedRuntime, placeable []MemberStatus) {
	if s.cfg.StragglerRatio < 0 || len(fed.Parts) < 2 {
		return
	}
	rates := make([]float64, 0, len(rt.health))
	for k := range fed.Parts {
		if fed.Parts[k].Local {
			continue
		}
		rates = append(rates, rt.health[k].rate)
	}
	if len(rates) < 2 {
		return
	}
	sort.Float64s(rates)
	median := rates[len(rates)/2]
	if median <= 0 {
		return
	}
	for k := range fed.Parts {
		p := &fed.Parts[k]
		h := &rt.health[k]
		if p.Fetched || p.Local || p.MemberJob == "" || p.SpecMemberJob != "" {
			h.slow = 0
			continue
		}
		if h.rate < s.cfg.StragglerRatio*median {
			h.slow++
		} else {
			h.slow = 0
		}
		if h.slow < s.cfg.StragglerCycles {
			continue
		}
		h.slow = 0
		s.speculatePart(ctx, j, fed, k, placeable)
	}
}

// speculatePart dispatches a duplicate of part k's window to a spare
// member: any placeable member other than the straggler's, preferring
// one with no unfetched primary window of its own. Failing to find or
// reach a spare just waits for the next straggler verdict.
func (s *Service) speculatePart(ctx context.Context, j *job, fed *fedDoc, k int, placeable []MemberStatus) {
	p := &fed.Parts[k]
	busy := map[string]bool{}
	for i := range fed.Parts {
		if !fed.Parts[i].Fetched && fed.Parts[i].MemberJob != "" {
			busy[fed.Parts[i].MemberURL] = true
		}
	}
	var spare *MemberStatus
	for i := range placeable {
		m := &placeable[i]
		if m.URL == p.MemberURL {
			continue
		}
		if !busy[m.URL] {
			spare = m
			break
		}
		if spare == nil {
			spare = m
		}
	}
	if spare == nil {
		return
	}
	spec := s.partSpec(j, p.Ranges, k, memberLabel(*spare))
	var st JobStatus
	if err := s.fed.api(ctx, spare.URL, http.MethodPost, "/api/v1/campaigns", spec, &st); err != nil {
		return // transient or rejected: retry at the next straggler verdict
	}
	p.SpecMemberURL = spare.URL
	p.SpecMemberJob = st.ID
	p.SpecMemberName = memberLabel(*spare)
	s.specParts.Inc()
	s.appendWarning(j, "part %d: progress on %s below %.0f%% of the fleet median for %d cycles; speculatively re-dispatched to %s",
		k, p.MemberURL, s.cfg.StragglerRatio*100, s.cfg.StragglerCycles, spare.URL)
	if err := s.persistFed(fed); err != nil {
		s.warnf("job %s: %v", j.id, err)
	}
}

// stepSpeculative polls part k's speculative duplicate. Completion
// makes it the merged copy (completePart cancels the original as the
// loser); losing the copy just drops it — the primary still owns the
// window.
func (s *Service) stepSpeculative(ctx context.Context, j *job, fed *fedDoc, k int, view *FleetPart) error {
	p := &fed.Parts[k]
	var st JobStatus
	err := s.fed.api(ctx, p.SpecMemberURL, http.MethodGet, "/api/v1/campaigns/"+p.SpecMemberJob, nil, &st)
	if err != nil {
		var fatal *fatalMemberError
		if !errors.As(err, &fatal) && s.memberAliveByURL(p.SpecMemberURL) {
			return nil // transient: next cycle
		}
		s.appendWarning(j, "part %d: speculative member %s unreachable or lost job %s; dropping the copy",
			k, p.SpecMemberURL, p.SpecMemberJob)
		p.SpecMemberURL, p.SpecMemberJob, p.SpecMemberName = "", "", ""
		view.Speculative = false
		return s.persistFed(fed)
	}
	switch st.State {
	case StateCompleted:
		if err := s.completePart(ctx, j, fed, k, st, true); err != nil {
			var fatal *fatalMemberError
			if errors.As(err, &fatal) {
				// The copy's documents are unusable; keep the primary.
				s.appendWarning(j, "part %d: speculative copy unusable (%v); dropping it", k, err)
				p.SpecMemberURL, p.SpecMemberJob, p.SpecMemberName = "", "", ""
				view.Speculative = false
				return s.persistFed(fed)
			}
			return nil // transient fetch failure: retry next cycle
		}
		view.Done = p.Done
		view.Critical = p.Critical
		view.Fetched = true
		view.Speculative = false
		view.Member, view.MemberURL, view.MemberJob = p.MemberName, p.MemberURL, p.MemberJob
	case StateFailed, StateCanceled:
		s.appendWarning(j, "part %d: speculative copy on %s %s; dropping it", k, p.SpecMemberURL, st.State)
		p.SpecMemberURL, p.SpecMemberJob, p.SpecMemberName = "", "", ""
		view.Speculative = false
		return s.persistFed(fed)
	default:
		// Two copies race; the fleet view shows whichever is farther.
		if st.Done > view.Done {
			view.Done = st.Done
			view.Critical = st.Critical
			view.Rate = st.Rate
		}
	}
	return nil
}

// rangesLen sums the draw windows of one part.
func rangesLen(ranges []core.DrawRange) int64 {
	var n int64
	for _, r := range ranges {
		n += r.Len()
	}
	return n
}

// assignPart submits part k's window to a placeable member and records
// the assignment durably. With no placeable member the part simply
// stays unassigned until one appears (or degraded mode takes it over).
func (s *Service) assignPart(ctx context.Context, j *job, fed *fedDoc, k int, rt *fedRuntime, placeable []MemberStatus) error {
	if len(placeable) == 0 {
		return nil
	}
	target := placeable[rt.assignSeq%len(placeable)]
	rt.assignSeq++
	spec := s.partSpec(j, fed.Parts[k].Ranges, k, memberLabel(target))
	var st JobStatus
	if err := s.fed.api(ctx, target.URL, http.MethodPost, "/api/v1/campaigns", spec, &st); err != nil {
		var fatal *fatalMemberError
		if errors.As(err, &fatal) {
			return fmt.Errorf("service: member %s rejected part %d: %w", target.URL, k, err)
		}
		return nil // transient: retry next cycle (possibly another member)
	}
	fed.Parts[k].MemberURL = target.URL
	fed.Parts[k].MemberJob = st.ID
	fed.Parts[k].MemberName = memberLabel(target)
	rt.health[k] = partHealth{}
	return s.persistFed(fed)
}

// partSpec is the member-job spec for one draw window of j: the same
// campaign restricted to the window, stamped with the correlation
// fields the member opens its part trace with (and the merged trace
// names on every spliced event).
func (s *Service) partSpec(j *job, ranges []core.DrawRange, k int, member string) CampaignSpec {
	spec := j.spec
	spec.Federated = false
	spec.Ranges = ranges
	spec.Name = fmt.Sprintf("%s#part%d", j.spec.Name, k)
	part := k
	spec.FederatedJob = j.id
	spec.FederatedPart = &part
	spec.FederatedMember = member
	return spec
}

// memberLabel is the member identity used in traces and fleet rows: the
// self-reported display name when set, the registry ID otherwise.
func memberLabel(m MemberStatus) string {
	if m.Name != "" {
		return m.Name
	}
	return m.ID
}

// completePart downloads and persists one completed copy of part k —
// the primary's (fromSpec false) or the speculative duplicate's
// (fromSpec true). The Result is parse-validated before it is written,
// so a torn response can never enter the merge; the member's part
// trace rides along for the merged-trace splice (a member that cannot
// serve its trace degrades to a warning — the trace is observability,
// the Result is the contract). When two copies raced, the loser's job
// is canceled and its Result is never fetched: exactly one Result per
// window reaches the merge, so no draw is ever double-tallied.
func (s *Service) completePart(ctx context.Context, j *job, fed *fedDoc, k int, st JobStatus, fromSpec bool) error {
	p := &fed.Parts[k]
	srcURL, srcJob, srcName := p.MemberURL, p.MemberJob, p.MemberName
	loserURL, loserJob := p.SpecMemberURL, p.SpecMemberJob
	if fromSpec {
		srcURL, srcJob, srcName = p.SpecMemberURL, p.SpecMemberJob, p.SpecMemberName
		loserURL, loserJob = p.MemberURL, p.MemberJob
	}
	data, err := s.fed.fetchDoc(ctx, srcURL, srcJob, "result")
	if err != nil {
		return err
	}
	if _, err := core.ReadResultJSON(bytes.NewReader(data)); err != nil {
		return &fatalMemberError{msg: fmt.Sprintf("part %d result unparseable: %v", k, err)}
	}
	tdata, terr := s.fed.fetchDoc(ctx, srcURL, srcJob, "trace")
	var fatal *fatalMemberError
	switch {
	case terr == nil:
		if err := s.atomicWrite(s.partTracePath(j.id, k), tdata); err != nil {
			return fmt.Errorf("service: writing part trace: %w", err)
		}
	case errors.As(terr, &fatal):
		s.appendWarning(j, "part %d: member %s job %s has no trace (%v); the merged trace will omit it",
			k, srcURL, srcJob, terr)
	default:
		return terr // transient: retry the whole fetch next cycle
	}
	if err := s.atomicWrite(s.partPath(j.id, k), data); err != nil {
		return fmt.Errorf("service: writing part result: %w", err)
	}
	if fromSpec {
		s.appendWarning(j, "part %d: speculative copy on %s finished first; merging it and canceling the original on %s",
			k, srcURL, loserURL)
	}
	p.MemberURL, p.MemberJob, p.MemberName = srcURL, srcJob, srcName
	p.SpecMemberURL, p.SpecMemberJob, p.SpecMemberName = "", "", ""
	p.Fetched = true
	p.Done = st.Done
	p.Critical = st.Critical
	p.AbandonedLanes = st.AbandonedLanes
	if err := s.persistFed(fed); err != nil {
		return err
	}
	// The losing copy is canceled before the merge can run (the merge
	// needs every part fetched, and this one just became fetched with
	// the winner's document); its draws may have been evaluated twice
	// on the fleet, but are tallied exactly once.
	if loserJob != "" {
		s.cancelMemberJob(loserURL, loserJob)
	}
	if st.AbandonedLanes > 0 {
		s.appendWarning(j, "member %s job %s: %d watchdog-abandoned lane(s)",
			p.MemberURL, p.MemberJob, st.AbandonedLanes)
	}
	s.mu.Lock()
	j.abandoned += st.AbandonedLanes
	if perr := s.persistLocked(j); perr != nil {
		s.warnf("job %s: %v", j.id, perr)
	}
	s.mu.Unlock()
	return nil
}

// localMemberLabel is the member identity stamped on degraded-mode
// windows in traces, fleet rows, and warnings.
const localMemberLabel = "coordinator"

// stepLocalPart advances one degraded-mode window: starts the local
// engine run on first sight, reflects its live progress in the fleet
// view while it runs, and harvests the finished Result into the same
// part slot the merge reads for remote windows.
func (s *Service) stepLocalPart(ctx context.Context, j *job, fed *fedDoc, k int, rt *fedRuntime, view *FleetPart) error {
	lr := rt.local[k]
	if lr == nil {
		lr = s.startLocalPart(ctx, j, fed, k)
		rt.local[k] = lr
	}
	view.Member = localMemberLabel
	view.MemberURL = ""
	view.MemberJob = ""
	select {
	case <-lr.done:
	default:
		p := lr.progress()
		view.Done = p.Done
		view.Critical = p.Critical
		view.Rate = p.Rate
		return nil
	}
	switch {
	case lr.err == nil && lr.res != nil && !lr.res.Partial:
		var buf bytes.Buffer
		if err := lr.res.WriteJSON(&buf); err != nil {
			return fmt.Errorf("service: part %d local result: %w", k, err)
		}
		if err := s.atomicWrite(s.partPath(j.id, k), buf.Bytes()); err != nil {
			return fmt.Errorf("service: writing part result: %w", err)
		}
		p := &fed.Parts[k]
		p.Fetched = true
		p.MemberName = localMemberLabel
		p.Done = lr.res.Injections()
		p.Critical = criticalOf(lr.res)
		if err := s.persistFed(fed); err != nil {
			return err
		}
		os.Remove(s.partCheckpointPath(j.id, k))
		os.Remove(s.partCheckpointPath(j.id, k) + ".bak")
		view.Done = p.Done
		view.Critical = p.Critical
		view.Fetched = true
		delete(rt.local, k)
		return nil
	case ctx.Err() != nil, lr.err == nil && lr.res != nil && lr.res.Partial:
		// Shutdown or cancel interrupted the run; runFederated's ctx
		// branch owns what happens next (the part checkpoint makes a
		// daemon-restart resume exact).
		return nil
	default:
		return fmt.Errorf("service: part %d local run: %v", k, lr.err)
	}
}

// startLocalPart launches part k's window on the coordinator's own
// engine as an ordinary checkpointed ranged job: same spec, same draw
// window, part-scoped checkpoint and trace files, resumable. Workers
// are clamped to the local pool — safe because Results are
// bit-identical at any worker count.
func (s *Service) startLocalPart(ctx context.Context, j *job, fed *fedDoc, k int) *localRun {
	lr := &localRun{done: make(chan struct{})}
	spec := s.partSpec(j, fed.Parts[k].Ranges, k, localMemberLabel)
	if spec.Workers > s.cfg.TotalWorkers {
		spec.Workers = s.cfg.TotalWorkers
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer close(lr.done)
		ev, plan, err := buildCampaign(spec, s.cfg.BuildEvaluator)
		if err != nil {
			lr.err = err
			return
		}
		tr, closeTrace := s.openPartTrace(j, k, spec)
		defer closeTrace()
		progress := func(p core.Progress) {
			lr.mu.Lock()
			lr.prog = p
			lr.mu.Unlock()
		}
		opts := []core.Option{
			core.WithWorkers(spec.Workers),
			core.WithCheckpoint(s.partCheckpointPath(j.id, k)),
			core.WithResume(),
			core.WithWarnings(func(msg string) { s.warnf("job %s part %d: %s", j.id, k, msg) }),
			core.WithDrawRanges(spec.Ranges),
		}
		if tr != nil {
			tp, inner := tr.Progress(spec.Name), progress
			progress = func(p core.Progress) { tp(p); inner(p) }
			opts = append(opts, core.WithTrace(tr.Sink(spec.Name)))
		}
		opts = append(opts, core.WithProgress(progress))
		if s.cfg.CheckpointEvery > 0 {
			opts = append(opts, core.WithCheckpointInterval(s.cfg.CheckpointEvery))
		}
		if s.cfg.ProgressEvery > 0 {
			opts = append(opts, core.WithProgressInterval(s.cfg.ProgressEvery))
		}
		if spec.EarlyStop != nil {
			opts = append(opts, core.WithEarlyStop(*spec.EarlyStop))
		}
		if spec.ExperimentTimeoutMS > 0 {
			opts = append(opts, core.WithExperimentTimeout(time.Duration(spec.ExperimentTimeoutMS)*time.Millisecond))
		}
		if spec.MaxRetries != nil {
			opts = append(opts, core.WithMaxRetries(*spec.MaxRetries))
		}
		if spec.Batch > 1 {
			opts = append(opts, core.WithGroupedEvaluation(true))
		}
		lr.res, lr.err = core.NewEngine(opts...).Execute(ctx, ev, plan, spec.RunSeed)
	}()
	return lr
}

// openPartTrace opens the degraded window's on-disk part trace with the
// same part_meta prologue a member daemon writes, so the merged-trace
// splice treats local and remote parts identically. Trace trouble
// degrades to a warning; the returned tracer may be nil.
func (s *Service) openPartTrace(j *job, k int, spec CampaignSpec) (*telemetry.Tracer, func()) {
	f, err := os.Create(s.partTracePath(j.id, k))
	if err != nil {
		s.warnf("job %s part %d: trace: %v", j.id, k, err)
		return nil, func() {}
	}
	pm := telemetry.PartMeta(spec.Name, j.id, k, localMemberLabel, spec.Ranges)
	if data, merr := json.Marshal(pm); merr == nil {
		if _, werr := f.Write(append(data, '\n')); werr != nil {
			s.warnf("job %s part %d: trace: %v", j.id, k, werr)
		}
	}
	tr := telemetry.NewTracer(f, traceBuffer)
	return tr, func() {
		if cerr := tr.Close(); cerr != nil {
			s.warnf("job %s part %d: trace: %v", j.id, k, cerr)
		}
		if cerr := f.Close(); cerr != nil {
			s.warnf("job %s part %d: trace: %v", j.id, k, cerr)
		}
	}
}

// mergeFederated folds the fetched part Results into the final document
// and completes the job. The merge is strict (in-order, gap-free,
// overlap-free), so any bookkeeping corruption surfaces as a failed
// job, never as a silently wrong Result.
func (s *Service) mergeFederated(j *job, plan *core.Plan, fed *fedDoc) error {
	parts := make([]*core.Result, len(fed.Parts))
	for k := range fed.Parts {
		data, err := os.ReadFile(s.partPath(j.id, k))
		if err != nil {
			return fmt.Errorf("service: part %d result missing: %w", k, err)
		}
		res, err := core.ReadResultJSON(bytes.NewReader(data))
		if err != nil {
			return fmt.Errorf("service: part %d: %w", k, err)
		}
		parts[k] = res
	}
	merged, err := core.MergeRangeResults(plan, parts)
	if err != nil {
		return err
	}
	if werr := s.writeResult(j.id, merged); werr != nil {
		return werr
	}
	// Splice the fetched part traces into the job's merged global trace
	// before removeFedState deletes them. Trace trouble is a warning,
	// never a failed merge — the Result is already durable.
	if terr := s.spliceFederatedTrace(j, plan, fed, merged); terr != nil {
		s.appendWarning(j, "merged trace: %v", terr)
	}
	s.removeFedState(j, len(fed.Parts))
	s.finish(j, StateCompleted, "", merged.Injections(), criticalOf(merged))
	return nil
}

// fedDone / fedCritical return the job's freshest progress tallies (for
// the repending/cancel paths, where no engine result exists).
func (s *Service) fedDone(j *job) int64 {
	j.pmu.Lock()
	defer j.pmu.Unlock()
	return j.prog.Done
}
func (s *Service) fedCritical(j *job) int64 {
	j.pmu.Lock()
	defer j.pmu.Unlock()
	return j.prog.Critical
}

// publishFedProgress snapshots this cycle's per-part tallies for the
// fleet view, publishes one per-part progress frame per part plus the
// fleet-summed aggregate frame to SSE subscribers — so `sfictl watch`
// behaves identically for federated and local jobs while part-aware
// consumers can follow each member — and reports whether every part is
// fetched.
func (s *Service) publishFedProgress(j *job, parts []FleetPart) bool {
	var done, critical int64
	final := true
	for _, p := range parts {
		done += p.Done
		critical += p.Critical
		final = final && p.Fetched
	}
	s.mu.Lock()
	j.fedParts = append([]FleetPart(nil), parts...)
	s.mu.Unlock()
	for _, fp := range parts {
		ev := telemetry.NewEvent(telemetry.KindProgress)
		ev.Campaign = j.id
		ev.TimeUnixNano = time.Now().UnixNano()
		ev.FederatedJob = j.id
		k := fp.Part
		ev.Part = &k
		ev.Member = fp.Member
		ev.Done = fp.Done
		ev.Planned = fp.Planned
		ev.Critical = fp.Critical
		ev.Rate = fp.Rate
		ev.Final = fp.Fetched
		j.b.publishJSON(ev)
	}
	p := core.Progress{Done: done, Planned: j.planned, Critical: critical, Final: final}
	j.pmu.Lock()
	j.prog = p
	j.hasProg = true
	j.pmu.Unlock()
	j.b.publishJSON(telemetry.FromProgress(j.id, p))
	return final
}

// JoinConfig parameterises JoinFleet, the member half of the
// membership protocol.
type JoinConfig struct {
	// Coordinator is the coordinator's base URL; Advertise the base URL
	// the coordinator should reach this daemon at; Name the display
	// label.
	Coordinator string
	Advertise   string
	Name        string
	// Interval is the heartbeat cadence (default 2s, jittered ±10%).
	Interval time.Duration
	// RPCTimeout bounds each registration/heartbeat attempt (default 5s).
	RPCTimeout time.Duration
	// Transport optionally replaces the HTTP transport — the chaos seam.
	Transport http.RoundTripper
	// Warnf receives one-line diagnostics.
	Warnf func(format string, args ...any)
}

// Join registers this daemon with a coordinator and keeps the
// registration alive with heartbeats until ctx ends, with the default
// resilience shape; JoinFleet is the configurable variant (sfid -join
// runs it).
func Join(ctx context.Context, coordinator, advertise, name string, interval time.Duration, warnf func(format string, args ...any)) {
	JoinFleet(ctx, JoinConfig{Coordinator: coordinator, Advertise: advertise, Name: name, Interval: interval, Warnf: warnf})
}

// JoinFleet runs the member→coordinator half of the membership
// protocol: register, then heartbeat until ctx ends. A heartbeat
// answered with 404 (coordinator restarted, registry gone) triggers
// re-registration; transport errors are reported through Warnf and the
// next tick simply tries again. The member-side breaker makes a dead
// coordinator cost one fast refusal per tick instead of a full
// timeout.
func JoinFleet(ctx context.Context, jc JoinConfig) {
	warnf := jc.Warnf
	if warnf == nil {
		warnf = func(string, ...any) {}
	}
	interval := jc.Interval
	if interval <= 0 {
		interval = 2 * time.Second
	}
	// Heartbeats recur on their own cadence, so each tick gets at most
	// one in-tick retry; more would just delay the next fresh beat.
	client := newMemberClient(jc.Transport, jc.RPCTimeout, 0, 0, nil)
	client.group.Policy.MaxAttempts = 2
	// Jittered cadence (±10%): a fleet started by one script would
	// otherwise register and heartbeat in lockstep, hammering the
	// coordinator with synchronized bursts forever.
	timer := time.NewTimer(jitter(interval))
	defer timer.Stop()
	var id string
	for {
		if id == "" {
			var st MemberStatus
			err := client.api(ctx, jc.Coordinator, http.MethodPost, "/api/v1/members",
				memberRegistration{URL: jc.Advertise, Name: jc.Name}, &st)
			if err != nil {
				warnf("join: registering with %s: %v", jc.Coordinator, err)
			} else {
				id = st.ID
			}
		} else {
			err := client.api(ctx, jc.Coordinator, http.MethodPost,
				"/api/v1/members/"+id+"/heartbeat", nil, nil)
			var fatal *fatalMemberError
			if errors.As(err, &fatal) {
				id = "" // unknown to the coordinator: re-register next tick
			} else if err != nil {
				warnf("join: heartbeat to %s: %v", jc.Coordinator, err)
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
			timer.Reset(jitter(interval))
		}
	}
}

// jitter spreads d by ±10%.
func jitter(d time.Duration) time.Duration {
	return time.Duration(float64(d) * (0.9 + 0.2*rand.Float64()))
}
