package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cnnsfi/internal/core"
	"cnnsfi/internal/faultmodel"
	"cnnsfi/internal/nn"
	"cnnsfi/internal/oracle"
	"cnnsfi/internal/service"
)

// fedNode is one in-process daemon (Service plus HTTP front) playing a
// member or coordinator role in a federation test.
type fedNode struct {
	dir string
	svc *service.Service
	srv *httptest.Server
}

func startNode(t *testing.T, cfg service.Config) *fedNode {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fedNode{dir: cfg.Dir, svc: svc, srv: httptest.NewServer(service.NewMux(svc))}
}

func (n *fedNode) stop(t *testing.T) {
	t.Helper()
	n.srv.Close()
	mustShutdown(t, n.svc)
}

// memberConfig is a member daemon's configuration.
func memberConfig(workers int, build service.EvaluatorBuilder) service.Config {
	return service.Config{
		TotalWorkers:   workers,
		BuildEvaluator: build,
	}
}

// coordConfig is a coordinator's configuration with a fast poll cycle.
func coordConfig(dir string, memberTimeout time.Duration) service.Config {
	return service.Config{
		Dir:            dir,
		Coordinator:    true,
		MemberTimeout:  memberTimeout,
		FederationPoll: 10 * time.Millisecond,
	}
}

// TestMemberRegistry pins the coordinator-side membership semantics:
// stable IDs, idempotent registration keyed on URL, heartbeat recovery
// signals, sorted listing, and liveness decay past the member timeout.
func TestMemberRegistry(t *testing.T) {
	coord, err := service.New(coordConfig(t.TempDir(), 150*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, coord)

	a, err := coord.RegisterMember("http://a.example:1", "alpha")
	if err != nil {
		t.Fatal(err)
	}
	b, err := coord.RegisterMember("http://b.example:1", "")
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == b.ID || a.ID == "" {
		t.Fatalf("member IDs not distinct: %q vs %q", a.ID, b.ID)
	}
	if !a.Alive || !b.Alive {
		t.Errorf("fresh registrations should be alive: %+v %+v", a, b)
	}
	// Idempotent on URL: identity survives, the name refreshes.
	a2, err := coord.RegisterMember("http://a.example:1", "renamed")
	if err != nil {
		t.Fatal(err)
	}
	if a2.ID != a.ID || a2.Name != "renamed" {
		t.Errorf("re-registration = %+v, want id %s name renamed", a2, a.ID)
	}
	if _, err := coord.MemberHeartbeat(a.ID); err != nil {
		t.Errorf("heartbeat of known member: %v", err)
	}
	if _, err := coord.MemberHeartbeat("m9999"); !errors.Is(err, service.ErrUnknownMember) {
		t.Errorf("heartbeat of unknown member = %v, want ErrUnknownMember", err)
	}
	if _, err := coord.RegisterMember("", "noname"); !errors.Is(err, service.ErrInvalidSpec) {
		t.Errorf("registration without url = %v, want ErrInvalidSpec", err)
	}
	ms, err := coord.Members()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0].ID >= ms[1].ID {
		t.Errorf("Members() = %+v, want 2 entries sorted by ID", ms)
	}
	// Without heartbeats liveness decays, and dead members stay listed.
	time.Sleep(250 * time.Millisecond)
	ms, err = coord.Members()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.Alive {
			t.Errorf("member %s still alive past the member timeout", m.ID)
		}
	}
}

// TestFederationEndpointsRequireCoordinator pins the 409 class: a plain
// daemon serves the member routes but refuses to play the role, and a
// federated submit without a coordinator is a 400.
func TestFederationEndpointsRequireCoordinator(t *testing.T) {
	plain := startNode(t, service.Config{})
	defer plain.stop(t)

	do := func(method, path, body string) int {
		t.Helper()
		var rd *strings.Reader
		if body == "" {
			rd = strings.NewReader("")
		} else {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, plain.srv.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := do(http.MethodPost, "/api/v1/members", `{"url":"http://x"}`); code != http.StatusConflict {
		t.Errorf("register on non-coordinator = %d, want 409", code)
	}
	if code := do(http.MethodGet, "/api/v1/members", ""); code != http.StatusConflict {
		t.Errorf("list on non-coordinator = %d, want 409", code)
	}
	if code := do(http.MethodPost, "/api/v1/members/m0001/heartbeat", ""); code != http.StatusConflict {
		t.Errorf("heartbeat on non-coordinator = %d, want 409", code)
	}
	if code := do(http.MethodPost, "/api/v1/campaigns",
		`{"model":"smallcnn","approach":"network-wise","federated":true}`); code != http.StatusBadRequest {
		t.Errorf("federated submit on non-coordinator = %d, want 400", code)
	}
}

// TestMemberEndpointsHTTP covers the coordinator-side member routes over
// HTTP: registration bodies, the member listing envelope, and the 404
// heartbeat signal.
func TestMemberEndpointsHTTP(t *testing.T) {
	coord := startNode(t, coordConfig("", time.Hour))
	defer coord.stop(t)

	resp, err := http.Post(coord.srv.URL+"/api/v1/members", "application/json",
		strings.NewReader(`{"url":"http://m.example:1","name":"one"}`))
	if err != nil {
		t.Fatal(err)
	}
	var st service.MemberStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st.ID == "" || !st.Alive {
		t.Fatalf("register = %d %+v, want 200 with a live member", resp.StatusCode, st)
	}
	for name, body := range map[string]string{
		"missing_url":   `{"name":"x"}`,
		"unknown_field": `{"url":"http://y","bogus":1}`,
	} {
		resp, err := http.Post(coord.srv.URL+"/api/v1/members", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s registration = %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err = http.Get(coord.srv.URL + "/api/v1/members")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Members []service.MemberStatus `json:"members"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Members) != 1 || list.Members[0].ID != st.ID {
		t.Errorf("member list = %+v, want exactly %s", list.Members, st.ID)
	}
	beat := func(id string) int {
		resp, err := http.Post(coord.srv.URL+"/api/v1/members/"+id+"/heartbeat", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := beat(st.ID); code != http.StatusOK {
		t.Errorf("heartbeat = %d, want 200", code)
	}
	if code := beat("m9999"); code != http.StatusNotFound {
		t.Errorf("unknown heartbeat = %d, want 404 (the re-register signal)", code)
	}
}

// TestJoinFleetQuietOnShutdown: a member whose context ends while a
// registration or heartbeat call is in flight returns without a
// warning — the cut-short call is an ordinary shutdown.
func TestJoinFleetQuietOnShutdown(t *testing.T) {
	for _, blockOn := range []string{"register", "heartbeat"} {
		t.Run(blockOn, func(t *testing.T) {
			blocked := make(chan struct{}, 1)
			coordSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if blockOn == "heartbeat" && r.URL.Path == "/api/v1/members" {
					json.NewEncoder(w).Encode(service.MemberStatus{ID: "m0001"})
					return
				}
				io.Copy(io.Discard, r.Body) // lets the server see the client hang up
				select {
				case blocked <- struct{}{}:
				default:
				}
				<-r.Context().Done() // hold the call until the member cancels it
			}))
			defer coordSrv.Close()

			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() {
				defer close(done)
				service.JoinFleet(ctx, service.JoinConfig{
					Coordinator: coordSrv.URL, Advertise: "http://127.0.0.1:1", Name: "m",
					Interval: 10 * time.Millisecond, RPCTimeout: time.Minute,
					Warnf: func(format string, args ...any) {
						t.Errorf("warning on an ordinary shutdown: "+format, args...)
					},
				})
			}()
			<-blocked
			cancel()
			<-done
		})
	}
}

// TestFederatedSpecValidation pins the mutual exclusions around
// federated and ranged specs.
func TestFederatedSpecValidation(t *testing.T) {
	coord, err := service.New(coordConfig(t.TempDir(), time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, coord)

	cases := map[string]func(*service.CampaignSpec){
		"federated_with_ranges": func(s *service.CampaignSpec) {
			s.Federated = true
			s.Ranges = []core.DrawRange{{From: 0, To: 1}}
		},
		"inverted_range": func(s *service.CampaignSpec) {
			s.Ranges = []core.DrawRange{{From: 5, To: 1}}
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			spec := fullSpec("network-wise", 0.2)
			mutate(&spec)
			if _, err := coord.Submit(spec); !errors.Is(err, service.ErrInvalidSpec) {
				t.Errorf("Submit = %v, want ErrInvalidSpec", err)
			}
		})
	}
}

// TestFederatedBitIdentity is the federation tentpole anchor: the
// merged Result of a federated campaign must be byte-identical to the
// direct single-node engine run of the same (plan, seed) — at every
// fleet size and member worker count, with the durable merge state
// cleaned up afterwards. A healthy fleet of equal members under the
// default configuration never backs up a window, so the members
// evaluate exactly the planned draws.
func TestFederatedBitIdentity(t *testing.T) {
	spec := fullSpec("data-aware", 0.05)
	want := directResult(t, spec)
	for _, members := range []int{1, 2, 3} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("members_%d_workers_%d", members, workers), func(t *testing.T) {
				dir := t.TempDir()
				coord, err := service.New(coordConfig(dir, time.Hour))
				if err != nil {
					t.Fatal(err)
				}
				defer mustShutdown(t, coord)
				var evals atomic.Int64
				for i := 0; i < members; i++ {
					m := startNode(t, memberConfig(4, slowBuilder(0, &evals)))
					defer m.stop(t)
					if _, err := coord.RegisterMember(m.srv.URL, fmt.Sprintf("node-%d", i)); err != nil {
						t.Fatal(err)
					}
				}
				s := spec
				s.Workers = workers
				s.Federated = true
				st, err := coord.Submit(s)
				if err != nil {
					t.Fatal(err)
				}
				final := waitState(t, coord, st.ID, service.StateCompleted)
				if final.Done != final.Planned || final.Planned == 0 {
					t.Errorf("done %d of planned %d, want a complete nonzero tally", final.Done, final.Planned)
				}
				got, err := coord.Result(st.ID)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("federated Result differs from the direct single-node run\n--- federated ---\n%s--- direct ---\n%s", got, want)
				}
				if _, err := os.Stat(filepath.Join(dir, st.ID+".fed.json")); !os.IsNotExist(err) {
					t.Errorf("merge state %s.fed.json survived completion", st.ID)
				}
				if v := metricValue(t, coord, "sfid_speculative_parts_total"); v != 0 {
					t.Errorf("sfid_speculative_parts_total = %v on a healthy fleet, want 0", v)
				}
				if n := evals.Load(); n != final.Planned {
					t.Errorf("members evaluated %d draws, want exactly the %d planned", n, final.Planned)
				}
			})
		}
	}
}

// waitAliveMembers blocks until the coordinator sees n live members.
func waitAliveMembers(t *testing.T, coord *service.Service, n int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		ms, err := coord.Members()
		if err != nil {
			t.Fatal(err)
		}
		alive := 0
		for _, m := range ms {
			if m.Alive {
				alive++
			}
		}
		if alive == n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("never saw %d live members", n)
}

// pickVictim waits until every member holds a part job and at least one
// shows evaluation progress, then returns a busy member's index — the
// one the chaos test kills mid-campaign.
func pickVictim(t *testing.T, nodes []*fedNode) int {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		assigned, busy := 0, -1
		for i, n := range nodes {
			jobs := n.svc.List()
			if len(jobs) > 0 {
				assigned++
			}
			for _, j := range jobs {
				if j.Done > 0 {
					busy = i
				}
			}
		}
		if assigned == len(nodes) && busy >= 0 {
			return busy
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("no member reached a running part in time")
	return -1
}

// TestFederatedMemberDeathReassignsRanges is the chaos satellite: kill
// one member mid-campaign (heartbeats stop, connections refused — the
// SIGKILL shape) and the coordinator must reassign its draw windows to
// a survivor, record the event in the job's warnings, and still merge a
// Result byte-identical to the single-node run — which is exactly the
// "zero double-tallied draws, unchanged critical_pct" guarantee.
func TestFederatedMemberDeathReassignsRanges(t *testing.T) {
	spec := fullSpec("network-wise", 0.02) // ~4k draws: room to interrupt
	want := directResult(t, spec)

	coordDir := t.TempDir()
	coord, err := service.New(coordConfig(coordDir, 400*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, coord)
	coordSrv := httptest.NewServer(service.NewMux(coord))
	defer coordSrv.Close()

	var evals atomic.Int64
	nodes := make([]*fedNode, 2)
	cancels := make([]context.CancelFunc, 2)
	for i := range nodes {
		nodes[i] = startNode(t, memberConfig(1, slowBuilder(200*time.Microsecond, &evals)))
		ctx, cancel := context.WithCancel(context.Background())
		cancels[i] = cancel
		go service.JoinFleet(ctx, service.JoinConfig{Coordinator: coordSrv.URL, Advertise: nodes[i].srv.URL,
			Name: fmt.Sprintf("node-%d", i), Interval: 50 * time.Millisecond})
	}
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()
	waitAliveMembers(t, coord, 2)

	s := spec
	s.Federated = true
	st, err := coord.Submit(s)
	if err != nil {
		t.Fatal(err)
	}
	victim := pickVictim(t, nodes)
	cancels[victim]()         // heartbeats stop
	nodes[victim].srv.Close() // connections refused from here on
	sdCtx, sdCancel := context.WithTimeout(context.Background(), 30*time.Second)
	_ = nodes[victim].svc.Shutdown(sdCtx)
	sdCancel()

	final := waitState(t, coord, st.ID, service.StateCompleted)
	if !strings.Contains(strings.Join(final.Warnings, "\n"), "reassigning") {
		t.Errorf("warnings %q record no range reassignment", final.Warnings)
	}
	if final.Done != final.Planned {
		t.Errorf("done %d of planned %d after reassignment", final.Done, final.Planned)
	}
	got, err := coord.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Result after member death differs from the single-node run (double-tally or lost draws)")
	}
	survivor := nodes[1-victim]
	survivor.stop(t)
}

// waitPartsAssigned blocks until the durable federation document at
// path records a member-job copy for all parts.
func waitPartsAssigned(t *testing.T, path string, parts int) {
	t.Helper()
	type fedState struct {
		Parts []struct {
			Copies []struct {
				Job string `json:"job"`
			} `json:"copies"`
		} `json:"parts"`
	}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		data, err := os.ReadFile(path)
		if err == nil {
			var fs fedState
			if json.Unmarshal(data, &fs) == nil && len(fs.Parts) == parts {
				all := true
				for _, p := range fs.Parts {
					if len(p.Copies) == 0 || p.Copies[0].Job == "" {
						all = false
					}
				}
				if all {
					return
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("federation state %s never assigned %d parts", path, parts)
}

// TestFederatedCoordinatorRestartResumesWithZeroReEvaluation pins the
// durable-merge-state guarantee: a coordinator restart mid-campaign
// re-attaches to the member jobs (which kept running, untouched) and
// completes the merge without a single draw being evaluated twice —
// and without the members ever re-registering, since polling goes by
// the URLs stored in the federation document.
func TestFederatedCoordinatorRestartResumesWithZeroReEvaluation(t *testing.T) {
	spec := fullSpec("network-wise", 0.02)
	want := directResult(t, spec)
	coordDir := t.TempDir()

	var memberEvals atomic.Int64
	nodes := make([]*fedNode, 2)
	for i := range nodes {
		nodes[i] = startNode(t, memberConfig(1, slowBuilder(500*time.Microsecond, &memberEvals)))
		defer nodes[i].stop(t)
	}

	coord1, err := service.New(coordConfig(coordDir, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range nodes {
		if _, err := coord1.RegisterMember(n.srv.URL, fmt.Sprintf("node-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	s := spec
	s.Federated = true
	st, err := coord1.Submit(s)
	if err != nil {
		t.Fatal(err)
	}
	waitPartsAssigned(t, filepath.Join(coordDir, st.ID+".fed.json"), 2)
	mustShutdown(t, coord1) // the federated job re-pends; member jobs keep running

	var coordEvals atomic.Int64
	cfg2 := coordConfig(coordDir, time.Hour)
	cfg2.BuildEvaluator = slowBuilder(0, &coordEvals)
	coord2, err := service.New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, coord2)

	final := waitState(t, coord2, st.ID, service.StateCompleted)
	got, err := coord2.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Result after coordinator restart differs from the single-node run")
	}
	if n := coordEvals.Load(); n != 0 {
		t.Errorf("restarted coordinator evaluated %d draws itself, want 0", n)
	}
	if n := memberEvals.Load(); n != final.Planned {
		t.Errorf("fleet evaluated %d draws, want exactly %d (zero re-evaluation across the restart)", n, final.Planned)
	}
	if joined := strings.Join(final.Warnings, "\n"); strings.Contains(joined, "reassigning") {
		t.Errorf("restart triggered a spurious reassignment: %q", joined)
	}
}

// hangOnceEvaluator blocks exactly one IsCritical call until release is
// closed — the watchdog abandons that lane; every other evaluation goes
// straight to the wrapped oracle.
type hangOnceEvaluator struct {
	inner   core.Evaluator
	hung    atomic.Bool
	release chan struct{}
}

func (h *hangOnceEvaluator) IsCritical(f faultmodel.Fault) bool {
	if h.hung.CompareAndSwap(false, true) {
		<-h.release
	}
	return h.inner.IsCritical(f)
}

func (h *hangOnceEvaluator) Space() faultmodel.Space { return h.inner.Space() }

func hangOnceBuilder(release chan struct{}) service.EvaluatorBuilder {
	return func(spec service.CampaignSpec, net *nn.Network) (core.Evaluator, error) {
		return &hangOnceEvaluator{inner: oracle.New(net, oracle.DefaultConfig(spec.OracleSeed)), release: release}, nil
	}
}

// TestFederatedAbandonedLanesSurfaceInWarnings pins the observability
// satellite: a member whose watchdog abandons a hung experiment reports
// the lane count on its terminal status, and the coordinator folds it
// into the federated job's abandoned_lanes tally and warnings.
func TestFederatedAbandonedLanesSurfaceInWarnings(t *testing.T) {
	release := make(chan struct{})
	defer close(release) // un-park the abandoned lane so its goroutine exits

	coord, err := service.New(coordConfig(t.TempDir(), time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, coord)
	m := startNode(t, memberConfig(1, hangOnceBuilder(release)))
	defer m.stop(t)
	if _, err := coord.RegisterMember(m.srv.URL, "hangs-once"); err != nil {
		t.Fatal(err)
	}

	s := fullSpec("network-wise", 0.2)
	s.Federated = true
	s.ExperimentTimeoutMS = 100
	zero := 0
	s.MaxRetries = &zero // quarantine on first failure; exactly one abandoned lane
	st, err := coord.Submit(s)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, coord, st.ID, service.StateCompleted)
	if final.AbandonedLanes != 1 {
		t.Errorf("abandoned_lanes = %d, want 1", final.AbandonedLanes)
	}
	if !strings.Contains(strings.Join(final.Warnings, "\n"), "watchdog-abandoned") {
		t.Errorf("warnings %q do not surface the member's abandoned lane", final.Warnings)
	}
}
