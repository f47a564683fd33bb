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
// Failure model: one lease rule over a per-window list of copies (the
// backup tasks of MapReduce, Dean & Ghemawat, OSDI 2004). Every copy is
// the same thing: a ranged job for the window, on a member's queue or on
// the coordinator's own. The coordinator reaches its own copies in
// process (Submit, Get, Result/Trace, Cancel) and its members' over the
// resilient RPC client; that is the only difference, so the coordinator's
// copy checkpoints, resumes after a restart, traces and reports progress
// exactly like any other job. Each poll cycle polls every copy and
// merges the first to complete; drops a copy whose daemon lost the job,
// or whose member stopped both heartbeating past Config.MemberTimeout
// and answering; offers every window without a copy to the
// least-loaded live member, or, when the window has gone without a
// running copy for MemberTimeout while no member was placeable, submits
// it to the coordinator's own queue; backs up a lone copy that an idle
// member would overtake by at least MemberTimeout, or whose progress
// stood still for MemberTimeout; and cancels the losing copies of
// merged windows until their daemons answer. Every new copy starts the
// window from its beginning — checkpoints do not travel between
// daemons. A copy that *fails* (as opposed to becoming unreachable)
// fails the federated job: the same spec would fail anywhere, so
// reassignment would loop. Draws are never double-tallied: exactly one
// fetched Result per window enters the merge, the other copies are
// canceled, and the merge itself rejects overlaps and gaps.

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
	// coordinator's member timeout; a dead member's unreachable copies
	// are dropped and their draw windows offered to live members.
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

// fedCopy is one evaluation of a draw window: a ranged job on the member
// at URL, or — with an empty URL — on the coordinator's own queue. Job
// is empty while the copy waits to be submitted. Label is the member's
// display label at assignment, the identity stamped on the window's
// trace events and fleet-view rows.
type fedCopy struct {
	URL   string `json:"url,omitempty"`
	Job   string `json:"job,omitempty"`
	Label string `json:"label"`
}

// own reports whether the copy runs on the coordinator's own queue.
func (c fedCopy) own() bool { return c.URL == "" }

// host names where the copy runs, for warnings.
func (c fedCopy) host() string {
	if c.own() {
		return localMemberLabel
	}
	return c.URL
}

// fedPart is one draw window's state inside the durable federation
// document.
type fedPart struct {
	// Ranges is the window of each plan stratum this part covers.
	Ranges []core.DrawRange `json:"ranges"`
	// Copies are the window's evaluations in flight, oldest first. The
	// first to complete enters the merge and the others are canceled,
	// so the merged Result cannot double-tally a draw; once Fetched,
	// Copies holds exactly the merged copy.
	Copies []fedCopy `json:"copies,omitempty"`
	// Fetched marks that the part's Result document is on disk
	// (partPath) and will enter the merge; Done / Critical carry its
	// final tallies for progress reporting, and Rate the merged copy's
	// own pace (its done draws over its member's started–finished span)
	// — what its member offers when it backs up a slower copy.
	Fetched  bool    `json:"fetched,omitempty"`
	Done     int64   `json:"done,omitempty"`
	Critical int64   `json:"critical,omitempty"`
	Rate     float64 `json:"rate,omitempty"`
	// AbandonedLanes is the member job's final watchdog-abandoned lane
	// count, surfaced in the coordinator's merged warnings.
	AbandonedLanes int64 `json:"abandoned_lanes,omitempty"`
	// Reassigned counts how often the window lost its last copy.
	Reassigned int `json:"reassigned,omitempty"`
}

// running reports whether the window has a copy that is evaluating it:
// the coordinator's own (which needs no member to be submitted), or one
// submitted to a member.
func (p *fedPart) running() bool {
	for _, c := range p.Copies {
		if c.own() || c.Job != "" {
			return true
		}
	}
	return false
}

// fedPartV1 is the single-holder form of a part that federation
// documents carried before copy lists: one member job (member_*), an
// optional speculative duplicate (spec_member_*), or a local run.
// loadOrInitFed turns it into Copies, so a job written by an older
// coordinator resumes without re-evaluating any member's draws; a local
// run becomes an own copy not yet submitted, which evaluates its window
// from the start (its old part checkpoint is not read).
type fedPartV1 struct {
	MemberURL      string `json:"member_url"`
	MemberJob      string `json:"member_job"`
	MemberName     string `json:"member_name"`
	SpecMemberURL  string `json:"spec_member_url"`
	SpecMemberJob  string `json:"spec_member_job"`
	SpecMemberName string `json:"spec_member_name"`
	Local          bool   `json:"local"`
}

func (v fedPartV1) copies() []fedCopy {
	var out []fedCopy
	switch {
	case v.Local:
		out = append(out, fedCopy{Label: localMemberLabel})
	case v.MemberJob != "":
		out = append(out, fedCopy{URL: v.MemberURL, Job: v.MemberJob, Label: v.MemberName})
	}
	if v.SpecMemberJob != "" {
		out = append(out, fedCopy{URL: v.SpecMemberURL, Job: v.SpecMemberJob, Label: v.SpecMemberName})
	}
	return out
}

// fedDoc is the durable merge state of one federated job
// (<id>.fed.json). It is persisted after every mutation, so a restarted
// coordinator re-attaches to every member job and re-evaluates nothing.
// (The one unavoidable crash window: a crash between a submit
// succeeding and the document persisting leaves an orphan job, on a
// member or on the coordinator's own queue — its draws may be evaluated
// twice, but never tallied twice, because only the document's own
// copies can enter the merge.)
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
// Parts in the older single-holder form get their copy lists here.
func (s *Service) loadOrInitFed(j *job, fingerprint uint64) *fedDoc {
	data, err := os.ReadFile(s.fedPath(j.id))
	if err == nil {
		var fed fedDoc
		var v1 struct {
			Parts []fedPartV1 `json:"parts"`
		}
		if json.Unmarshal(data, &fed) == nil && json.Unmarshal(data, &v1) == nil && fed.Fingerprint == fingerprint {
			for k := range fed.Parts {
				if fed.Parts[k].Copies == nil {
					fed.Parts[k].Copies = v1.Parts[k].copies()
				}
			}
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

// fedRuntime is the in-memory (non-durable) per-run state of one
// federated job, all on the coordinator's own clock.
type fedRuntime struct {
	start time.Time
	// orphaned is, per window, since when it has had neither a running
	// copy nor a placeable member to take one.
	orphaned []time.Time
	// leases holds each copy's latest successful poll (for a copy not yet
	// submitted, its offer).
	leases map[fedCopy]lease
	// losers are the losing copies of merged windows whose daemons have
	// not yet answered a cancel.
	losers []fedCopy
}

// lease is what the coordinator last learned of one copy: its
// reported progress and rate, and when that progress last advanced.
type lease struct {
	done    int64
	rate    float64
	renewed time.Time
}

// renew records a successful poll of c; the lease's deadline moves
// only when the reported progress advanced (or c is new).
func (rt *fedRuntime) renew(c fedCopy, st JobStatus) {
	l, ok := rt.leases[c]
	if !ok || st.Done > l.done {
		l.renewed = time.Now()
	}
	l.done, l.rate = st.Done, st.Rate
	rt.leases[c] = l
}

// runFederated drives one federated job end to end: split the plan
// across the live fleet, keep every window evaluated by at least one
// copy, fetch the first finished copy of each window, and merge them in
// draw order. It owns the job's terminal transition exactly like
// runJob does, and after the merge keeps canceling losing copies until
// none is left or the service shuts down.
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
	rt := &fedRuntime{start: time.Now(), leases: map[fedCopy]lease{}}
	merged := false
	for {
		if !merged {
			done, err := s.fedStep(ctx, j, plan, fed, rt)
			if err != nil {
				s.finish(j, StateFailed, err.Error(), s.fedDone(j), s.fedCritical(j))
				return
			}
			merged = done
		}
		s.cancelLosers(rt)
		if merged && len(rt.losers) == 0 {
			return
		}
		select {
		case <-ctx.Done():
			if merged {
				return // shutdown; the losers' jobs are not tallied anywhere
			}
			if s.isUserCancel(j) {
				// Best-effort: stop every copy, then drop the merge state —
				// an individually canceled job never resumes.
				for _, p := range fed.Parts {
					for _, c := range p.Copies {
						if !p.Fetched && c.Job != "" {
							s.cancelCopy(c)
						}
					}
				}
				s.removeFedState(j, len(fed.Parts))
				s.finish(j, StateCanceled, "canceled", s.fedDone(j), s.fedCritical(j))
				return
			}
			// Coordinator shutdown: the merge state is durable, the member
			// jobs keep running, and the coordinator's own copies checkpoint
			// and re-pend with it; the next daemon run re-attaches to all of
			// them by job ID and resumes.
			s.repending(j, s.fedDone(j), s.fedCritical(j))
			return
		case <-ticker.C:
		}
	}
}

// cancelLosers cancels the losing copies of merged windows, keeping for
// the next cycle each one whose daemon did not answer while its member
// still heartbeats — a member that died took its job with it.
func (s *Service) cancelLosers(rt *fedRuntime) {
	kept := rt.losers[:0]
	for _, c := range rt.losers {
		if !s.cancelCopy(c) && s.memberAliveByURL(c.URL) {
			kept = append(kept, c)
		}
	}
	rt.losers = kept
}

// fedStep advances the federated job one poll cycle under one lease
// rule: poll every copy, offer each window that has no copy, and back
// up each copy a finished member would overtake. It returns done when
// the job reached a terminal transition (completed), and a non-nil
// error for unrecoverable failures.
func (s *Service) fedStep(ctx context.Context, j *job, plan *core.Plan, fed *fedDoc, rt *fedRuntime) (bool, error) {
	// Members are listed by ID; a placeable one is alive and its
	// circuit breaker admits calls.
	alive := s.aliveMembers()
	var placeable []MemberStatus
	for _, m := range alive {
		if s.fed.available(m.URL) {
			placeable = append(placeable, m)
		}
	}
	// Split once, by the live fleet size at first sighting — or, when no
	// fleet appears within MemberTimeout, into a single window the
	// coordinator takes itself.
	if fed.Parts == nil {
		n := len(alive)
		if n == 0 {
			if time.Since(rt.start) < s.cfg.MemberTimeout {
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
	if rt.orphaned == nil {
		rt.orphaned = make([]time.Time, len(fed.Parts))
		for k := range rt.orphaned {
			rt.orphaned[k] = rt.start
		}
	}

	// 1. Poll every copy.
	views := make([]FleetPart, len(fed.Parts))
	for k := range fed.Parts {
		views[k] = FleetPart{Job: j.id, Part: k, Planned: rangesLen(fed.Parts[k].Ranges)}
		if !fed.Parts[k].Fetched {
			if err := s.pollPart(ctx, j, fed, k, rt, &views[k]); err != nil {
				return false, err
			}
		}
	}

	// 2. Offer each window without a copy to the live member holding the
	// fewest unfetched copies (ties: lower ID). The copy is submitted
	// once that member's breaker admits calls; until then it waits, as
	// polls do while a member heartbeats. A window that has gone without
	// a submitted copy for MemberTimeout while no member was placeable
	// is taken by the coordinator.
	held := map[string]int{}
	for _, p := range fed.Parts {
		for _, c := range p.Copies {
			if !p.Fetched {
				held[c.URL]++
			}
		}
	}
	now := time.Now()
	for k := range fed.Parts {
		p := &fed.Parts[k]
		if p.Fetched || p.running() || len(placeable) > 0 {
			rt.orphaned[k] = now
		}
		if !p.Fetched && len(p.Copies) == 0 && len(alive) > 0 {
			m := alive[0]
			for _, o := range alive[1:] {
				if held[o.URL] < held[m.URL] {
					m = o
				}
			}
			if err := s.addCopy(ctx, j, fed, k, m); err != nil {
				return false, err
			}
			held[m.URL]++
		}
		if p.Fetched || now.Sub(rt.orphaned[k]) < s.cfg.MemberTimeout {
			continue
		}
		p.Copies = []fedCopy{{Label: localMemberLabel}}
		if err := s.persistFed(fed); err != nil {
			return false, err
		}
		s.appendWarning(j, "part %d: no placeable member for %s; running the window on the coordinator's own queue (degraded mode)",
			k, now.Sub(rt.orphaned[k]).Round(time.Second))
		if err := s.submitCopy(ctx, j, fed, k, 0); err != nil {
			return false, err
		}
	}

	// 3. Back up a window's lone member copy on an idle member — one
	// holding no unfetched copy of this job, which has already finished
	// a window of it — when that member would overtake the copy.
	for k := range fed.Parts {
		p := &fed.Parts[k]
		if p.Fetched || len(p.Copies) != 1 {
			continue
		}
		l, polled := rt.leases[p.Copies[0]]
		if !polled {
			continue
		}
		for _, m := range placeable {
			idle, finished := finishedRate(fed, m.URL)
			if held[m.URL] > 0 || !finished || !s.behind(l, rangesLen(p.Ranges), idle) {
				continue
			}
			held[m.URL]++
			s.specParts.Inc()
			s.appendWarning(j, "part %d: copy on %s at %d of %d draws, %.0f/s; %s finished a window at %.0f/s, so the window was speculatively re-dispatched to it",
				k, p.Copies[0].host(), l.done, rangesLen(p.Ranges), l.rate, m.URL, idle)
			if err := s.addCopy(ctx, j, fed, k, m); err != nil {
				return false, err
			}
			break
		}
	}

	for k := range fed.Parts {
		p, v := &fed.Parts[k], &views[k]
		if len(p.Copies) > 0 {
			v.Member, v.MemberURL, v.MemberJob = p.Copies[0].Label, p.Copies[0].URL, p.Copies[0].Job
		}
		v.Speculative = !p.Fetched && len(p.Copies) > 1
		if p.Fetched {
			v.Done, v.Critical, v.Rate, v.Fetched = p.Done, p.Critical, 0, true
		}
	}
	if !s.publishFedProgress(j, views) {
		return false, nil
	}
	return true, s.mergeFederated(j, plan, fed)
}

// pollPart polls every copy of window k. The first copy found complete
// is fetched and merged and the others are canceled; a copy that failed
// or was canceled fails the job (the same spec would fail anywhere); a
// copy whose poll fails fatally, or fails while its member is dead by
// heartbeat, is dropped — nothing from it was tallied, so no draw can
// be counted twice.
func (s *Service) pollPart(ctx context.Context, j *job, fed *fedDoc, k int, rt *fedRuntime, view *FleetPart) error {
	p := &fed.Parts[k]
	for i := 0; i < len(p.Copies); i++ {
		c := p.Copies[i]
		if c.Job == "" && (c.own() || s.memberAliveByURL(c.URL)) {
			rt.renew(c, JobStatus{}) // an unsubmitted copy's lease runs from its offer
			if err := s.submitCopy(ctx, j, fed, k, i); err != nil {
				return err
			}
			continue
		}
		var st JobStatus
		err := ErrUnknownMember // an unsubmitted copy whose member died
		if c.Job != "" {
			st, err = s.copyStatus(ctx, c)
		}
		var fatal *fatalMemberError
		if err != nil {
			if !errors.As(err, &fatal) && s.memberAliveByURL(c.URL) {
				continue // transient (or breaker-open): the member still heartbeats
			}
			p.Copies = append(p.Copies[:i:i], p.Copies[i+1:]...)
			i--
			if len(p.Copies) == 0 {
				p.Reassigned++
				s.appendWarning(j, "part %d: member %s unreachable or lost its job %q; reassigning its draw ranges (attempt %d)",
					k, c.host(), c.Job, p.Reassigned)
			} else {
				s.appendWarning(j, "part %d: member %s unreachable or lost its job %q; dropping its copy", k, c.host(), c.Job)
			}
			if err := s.persistFed(fed); err != nil {
				return err
			}
			continue
		}
		switch st.State {
		case StateCompleted:
			if err := s.completePart(ctx, j, fed, k, i, st, rt); err != nil {
				if errors.As(err, &fatal) {
					return err
				}
				continue // transient fetch failure: retry next cycle
			}
			return nil
		case StateFailed, StateCanceled:
			return fmt.Errorf("service: member %s job %s %s: %s", c.host(), c.Job, st.State, st.Error)
		}
		rt.renew(c, st)
		if st.Done >= view.Done { // racing copies: show the farther one
			view.Done, view.Critical, view.Rate = st.Done, st.Critical, st.Rate
		}
	}
	return nil
}

// finishedRate reports whether the member at url has finished (had
// merged) a window of this job, and the pace it finished at.
func finishedRate(fed *fedDoc, url string) (float64, bool) {
	for _, p := range fed.Parts {
		if p.Fetched && len(p.Copies) > 0 && p.Copies[0].URL == url {
			return p.Rate, true
		}
	}
	return 0, false
}

// behind reports whether an idle member that finishes windows at rate
// idle should back up the leased copy. It should when it would finish
// the whole window at least one lease length (MemberTimeout) before the
// copy finishes what it has left: window/idle + MemberTimeout <
// (window − done)/rate, with done and both rates as the members
// themselves last reported them, so no clocks are compared across
// hosts. Equal speeds never qualify, and the lease length keeps a
// passing slowdown — members sharing a host's CPUs — from buying a
// duplicate that cannot win by much. A copy that has reported no rate
// yet is not judged on rate (a member reports progress once per grid
// spacing of the plan, so a copy just started has none), but once its
// reported progress has not advanced for MemberTimeout — stalled, or
// unreachable while it heartbeats — its lease has lapsed and it
// qualifies whatever its last rate said.
func (s *Service) behind(l lease, window int64, idle float64) bool {
	if time.Since(l.renewed) >= s.cfg.MemberTimeout {
		return true
	}
	if l.rate <= 0 || idle <= 0 {
		return false
	}
	return float64(window)/idle+s.cfg.MemberTimeout.Seconds() < float64(window-l.done)/l.rate
}

// rangesLen sums the draw windows of one part.
func rangesLen(ranges []core.DrawRange) int64 {
	var n int64
	for _, r := range ranges {
		n += r.Len()
	}
	return n
}

// addCopy assigns a new copy of window k to member m and submits it
// when m's breaker admits calls.
func (s *Service) addCopy(ctx context.Context, j *job, fed *fedDoc, k int, m MemberStatus) error {
	p := &fed.Parts[k]
	p.Copies = append(p.Copies, fedCopy{URL: m.URL, Label: memberLabel(m)})
	if !s.fed.available(m.URL) {
		return s.persistFed(fed)
	}
	return s.submitCopy(ctx, j, fed, k, len(p.Copies)-1)
}

// submitCopy submits copy i of window k, assigned to its daemon but not
// yet running there, and records the job durably. A transient failure
// leaves the copy unsubmitted for the next cycle; a daemon rejecting
// the spec fails the job, since the same spec would be rejected
// anywhere.
func (s *Service) submitCopy(ctx context.Context, j *job, fed *fedDoc, k, i int) error {
	c := &fed.Parts[k].Copies[i]
	spec := s.partSpec(j, fed.Parts[k].Ranges, k, c.Label)
	var st JobStatus
	var err error
	if c.own() {
		st, err = s.Submit(spec)
		err = ownErr(err)
	} else {
		err = s.fed.api(ctx, c.URL, http.MethodPost, "/api/v1/campaigns", spec, &st)
	}
	if err != nil {
		var fatal *fatalMemberError
		if errors.As(err, &fatal) {
			return fmt.Errorf("service: member %s rejected part %d: %w", c.host(), k, err)
		}
		return nil
	}
	c.Job = st.ID
	return s.persistFed(fed)
}

// The remaining call points of a copy. Each reaches the coordinator's
// own copy in process — so neither the chaos transport nor a breaker
// ever sees it — and a member's over the resilient RPC client, with the
// same error classes: *fatalMemberError for what retrying cannot fix,
// anything else transient.

// ownErr classifies an in-process answer like a member's HTTP answer:
// an unknown job or a rejected spec is fatal; a full queue, a draining
// service or a failed state write is retried next cycle.
func ownErr(err error) error {
	if errors.Is(err, ErrUnknownJob) || errors.Is(err, ErrInvalidSpec) {
		return &fatalMemberError{msg: err.Error()}
	}
	return err
}

// copyStatus polls the job of copy c.
func (s *Service) copyStatus(ctx context.Context, c fedCopy) (JobStatus, error) {
	if c.own() {
		st, err := s.Get(c.Job)
		return st, ownErr(err)
	}
	var st JobStatus
	err := s.fed.api(ctx, c.URL, http.MethodGet, "/api/v1/campaigns/"+c.Job, nil, &st)
	return st, err
}

// copyDoc fetches the "result" or "trace" document of copy c's
// completed job.
func (s *Service) copyDoc(ctx context.Context, c fedCopy, doc string) ([]byte, error) {
	if !c.own() {
		return s.fed.fetchDoc(ctx, c.URL, c.Job, doc)
	}
	read := s.Result
	if doc == "trace" {
		read = s.Trace
	}
	data, err := read(c.Job)
	return data, ownErr(err)
}

// cancelCopy stops copy c's job and reports whether its daemon answered:
// the job is canceled, or an answer retrying cannot change (404 unknown,
// 409 already finished). The coordinator's own queue always answers. A
// short deadline bounds a member's retries; an unanswered cancel is
// retried by the caller.
func (s *Service) cancelCopy(c fedCopy) bool {
	if c.own() {
		s.Cancel(c.Job)
		return true
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*s.cfg.MemberRPCTimeout)
	defer cancel()
	err := s.fed.api(ctx, c.URL, http.MethodDelete, "/api/v1/campaigns/"+c.Job, nil, nil)
	var fatal *fatalMemberError
	return err == nil || errors.As(err, &fatal)
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

// completePart downloads and persists copy i of part k, which
// completed first. The Result is parse-validated before it is written,
// so a torn response can never enter the merge; the copy's part trace
// rides along for the merged-trace splice (a daemon that cannot serve
// its trace degrades to a warning — the trace is observability, the
// Result is the contract). The other copies join rt.losers to be
// canceled, and their Results are never fetched: exactly one Result per
// window reaches the merge, so no draw is ever double-tallied.
func (s *Service) completePart(ctx context.Context, j *job, fed *fedDoc, k, i int, st JobStatus, rt *fedRuntime) error {
	p := &fed.Parts[k]
	win := p.Copies[i]
	data, err := s.copyDoc(ctx, win, "result")
	if err != nil {
		return err
	}
	if _, err := core.ReadResultJSON(bytes.NewReader(data)); err != nil {
		return &fatalMemberError{msg: fmt.Sprintf("part %d result unparseable: %v", k, err)}
	}
	tdata, terr := s.copyDoc(ctx, win, "trace")
	var fatal *fatalMemberError
	switch {
	case terr == nil:
		if err := s.atomicWrite(s.partTracePath(j.id, k), tdata); err != nil {
			return fmt.Errorf("service: writing part trace: %w", err)
		}
	case errors.As(terr, &fatal):
		s.appendWarning(j, "part %d: member %s job %s has no trace (%v); the merged trace will omit it",
			k, win.host(), win.Job, terr)
	default:
		return terr // transient: retry the whole fetch next cycle
	}
	if err := s.atomicWrite(s.partPath(j.id, k), data); err != nil {
		return fmt.Errorf("service: writing part result: %w", err)
	}
	losers := append(append([]fedCopy(nil), p.Copies[:i]...), p.Copies[i+1:]...)
	for _, c := range losers {
		s.appendWarning(j, "part %d: the copy on %s finished first; merging it and canceling the copy on %s",
			k, win.host(), c.host())
	}
	p.Copies = []fedCopy{win}
	p.Fetched = true
	p.Done = st.Done
	p.Critical = st.Critical
	p.AbandonedLanes = st.AbandonedLanes
	if span := st.FinishedAt.Sub(st.StartedAt).Seconds(); span > 0 {
		p.Rate = float64(st.Done) / span
	}
	if err := s.persistFed(fed); err != nil {
		return err
	}
	// The losers' draws may have been evaluated twice on the fleet, but
	// are tallied exactly once.
	for _, c := range losers {
		if c.Job != "" { // an unsubmitted copy has nothing to cancel
			rt.losers = append(rt.losers, c)
		}
	}
	if st.AbandonedLanes > 0 {
		s.appendWarning(j, "member %s job %s: %d watchdog-abandoned lane(s)",
			win.host(), win.Job, st.AbandonedLanes)
	}
	s.mu.Lock()
	j.abandoned += st.AbandonedLanes
	if perr := s.persistLocked(j); perr != nil {
		s.warnf("job %s: %v", j.id, perr)
	}
	s.mu.Unlock()
	return nil
}

// localMemberLabel is the member identity stamped on the coordinator's
// own copies in traces, fleet rows, and warnings.
const localMemberLabel = "coordinator"

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

// JoinFleet runs the member→coordinator half of the membership
// protocol: register, then heartbeat until ctx ends. A heartbeat
// answered with 404 (coordinator restarted, registry gone) triggers
// re-registration; transport errors are reported through Warnf and the
// next tick simply tries again. A call cut short because ctx ended is
// an ordinary shutdown, not a fault, and is not reported. The
// member-side breaker makes a dead coordinator cost one fast refusal
// per tick instead of a full timeout.
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
			if ctx.Err() != nil {
				return
			}
			if err != nil {
				warnf("join: registering with %s: %v", jc.Coordinator, err)
			} else {
				id = st.ID
			}
		} else {
			err := client.api(ctx, jc.Coordinator, http.MethodPost,
				"/api/v1/members/"+id+"/heartbeat", nil, nil)
			var fatal *fatalMemberError
			if ctx.Err() != nil {
				return
			}
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
