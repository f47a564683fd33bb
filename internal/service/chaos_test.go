package service_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cnnsfi/internal/core"
	"cnnsfi/internal/resilience"
	"cnnsfi/internal/service"
)

// chaosCoord returns a coordinator configuration for chaos runs: fast
// polling, the chaos transport on every fleet RPC, and a breaker tuned
// tight enough to trip and recover within a test. Liveness comes from
// the registry (no heartbeats), so chaos-induced RPC failures read as
// transient, never as member death — these tests pin the retry and
// breaker layer, not reassignment.
func chaosCoord(t *testing.T, spec string) service.Config {
	t.Helper()
	chaos, err := resilience.ParseChaos(spec)
	if err != nil {
		t.Fatal(err)
	}
	return service.Config{
		Dir:              t.TempDir(),
		Coordinator:      true,
		MemberTimeout:    time.Hour,
		FederationPoll:   10 * time.Millisecond,
		MemberRPCTimeout: 2 * time.Second,
		BreakerThreshold: 3,
		BreakerOpenFor:   100 * time.Millisecond,
		Transport:        resilience.NewTransport(chaos, nil),
	}
}

// metricsText renders the service registry in the exposition format.
func metricsText(t *testing.T, svc *service.Service) string {
	t.Helper()
	var buf bytes.Buffer
	if err := svc.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// metricValue returns the unlabeled sample of name from the service
// registry, failing the test if the series is absent.
func metricValue(t *testing.T, svc *service.Service, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(metricsText(t, svc), "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("metric %s: %v", name, err)
		}
		return v
	}
	t.Fatalf("metric %s not found in registry output", name)
	return 0
}

// TestFederatedChaosBitIdentity is the resilience tentpole anchor: with
// a fault-injecting transport between the coordinator and its members —
// dropped connections, synthesized 5xx bursts, torn response bodies, a
// flapping link — a federated campaign must still complete with a
// merged Result byte-identical to the direct single-node run. Retries
// are visible in sfid_retries_total and every member carries a breaker
// series; no draw is ever tallied twice (that is what byte identity
// proves).
func TestFederatedChaosBitIdentity(t *testing.T) {
	spec := fullSpec("data-aware", 0.05)
	want := directResult(t, spec)
	scenarios := map[string]string{
		"drop":     "drop=0.25,seed=7",
		"error5xx": "err=0.25,seed=11",
		"truncate": "truncate=0.25,seed=13",
		"flap":     "flap=250ms/80ms",
		"burst":    "drop=0.1,err=0.1,truncate=0.1,delay=2ms,seed=17",
	}
	for name, chaosSpec := range scenarios {
		t.Run(name, func(t *testing.T) {
			coord, err := service.New(chaosCoord(t, chaosSpec))
			if err != nil {
				t.Fatal(err)
			}
			defer mustShutdown(t, coord)
			for i := 0; i < 2; i++ {
				m := startNode(t, memberConfig(4, nil))
				defer m.stop(t)
				if _, err := coord.RegisterMember(m.srv.URL, fmt.Sprintf("node-%d", i)); err != nil {
					t.Fatal(err)
				}
			}
			s := spec
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
				t.Errorf("Result under chaos %q differs from the direct single-node run (double-tally or lost draws)", chaosSpec)
			}
			if v := metricValue(t, coord, "sfid_retries_total"); v == 0 {
				t.Errorf("sfid_retries_total = 0 under chaos %q, want retries to have been scheduled", chaosSpec)
			}
			if text := metricsText(t, coord); !strings.Contains(text, `sfid_member_breaker_state{member="`) {
				t.Error("no sfid_member_breaker_state series for the fleet members")
			}
		})
	}
}

// failDeletes is a transport whose first n DELETE requests fail before
// reaching the network; every other request passes through. answered
// counts the DELETEs a member answered.
type failDeletes struct {
	n, sent, answered atomic.Int64
}

func (f *failDeletes) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method != http.MethodDelete {
		return http.DefaultTransport.RoundTrip(r)
	}
	if f.sent.Add(1) <= f.n.Load() {
		return nil, errors.New("injected DELETE failure")
	}
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil {
		f.answered.Add(1)
	}
	return resp, err
}

// TestFederatedStragglerSpeculation pins backup copies: once the hare
// has finished its own window, a window whose lone copy it would
// overtake — a tortoise whose reported rate leaves more time than the
// hare needs for the whole window, or a member that keeps heartbeating
// while its job makes no progress for the member timeout — gets a
// second copy on the hare; the fast copy merges first, and the Result
// is still byte-identical — exactly one fetched copy of the window
// enters the merge. The original is canceled on its member even though
// the coordinator's first DELETEs to it fail: more of them than one
// cancel call's retries, so only a retry on a later cycle reaches it.
func TestFederatedStragglerSpeculation(t *testing.T) {
	spec := fullSpec("network-wise", 0.02) // ~4k draws: two ~2k windows
	want := directResult(t, spec)
	cases := map[string]func(release chan struct{}, evals *atomic.Int64) service.EvaluatorBuilder{
		// At 2ms per draw the tortoise needs seconds for its window; the
		// hare is 10× faster.
		"slow": func(_ chan struct{}, evals *atomic.Int64) service.EvaluatorBuilder {
			return slowBuilder(2*time.Millisecond, evals)
		},
		// The laggard's single worker parks on its first draw until
		// release: the daemon heartbeats and answers polls, but its job
		// never progresses.
		"stalled": func(release chan struct{}, _ *atomic.Int64) service.EvaluatorBuilder {
			return hangOnceBuilder(release)
		},
	}
	for name, laggard := range cases {
		t.Run(name, func(t *testing.T) {
			release := make(chan struct{})
			var closeOnce sync.Once
			unblock := func() { closeOnce.Do(func() { close(release) }) }
			defer unblock()

			cfg := coordConfig(t.TempDir(), 500*time.Millisecond)
			deletes := &failDeletes{}
			deletes.n.Store(6)
			cfg.Transport = deletes
			cfg.BreakerOpenFor = 50 * time.Millisecond // the failed DELETEs trip it
			coord, err := service.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer mustShutdown(t, coord)
			coordSrv := httptest.NewServer(service.NewMux(coord))
			defer coordSrv.Close()

			var evals atomic.Int64
			tortoise := startNode(t, memberConfig(1, laggard(release, &evals)))
			defer tortoise.stop(t)
			hare := startNode(t, memberConfig(4, slowBuilder(200*time.Microsecond, &evals)))
			defer hare.stop(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			for label, n := range map[string]*fedNode{"tortoise": tortoise, "hare": hare} {
				go service.JoinFleet(ctx, service.JoinConfig{Coordinator: coordSrv.URL, Advertise: n.srv.URL,
					Name: label, Interval: 50 * time.Millisecond})
			}
			waitAliveMembers(t, coord, 2)

			s := spec
			s.Federated = true
			st, err := coord.Submit(s)
			if err != nil {
				t.Fatal(err)
			}
			final := waitState(t, coord, st.ID, service.StateCompleted)
			// The stalled original observes its cancellation only once
			// released; released before the cancel lands, it would finish.
			for deadline := time.Now().Add(30 * time.Second); deletes.answered.Load() == 0; time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("no cancel reached the straggling original's member (%d DELETEs sent, the first %d failed)",
						deletes.sent.Load(), deletes.n.Load())
				}
			}
			unblock()
			joined := strings.Join(final.Warnings, "\n")
			if !strings.Contains(joined, "speculatively re-dispatched") {
				t.Errorf("warnings %q record no speculative dispatch", final.Warnings)
			}
			if !strings.Contains(joined, "finished first") {
				t.Errorf("warnings %q do not record the speculative copy winning", final.Warnings)
			}
			if final.Done != final.Planned {
				t.Errorf("done %d of planned %d after speculation", final.Done, final.Planned)
			}
			got, err := coord.Result(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("Result after speculative re-execution differs from the single-node run (double-tally)")
			}
			if v := metricValue(t, coord, "sfid_speculative_parts_total"); v < 1 {
				t.Errorf("sfid_speculative_parts_total = %v, want >= 1", v)
			}
			// The losing original must have been canceled, not left crawling.
			deadline := time.Now().Add(30 * time.Second)
			for {
				canceled := false
				for _, j := range tortoise.svc.List() {
					if j.State == service.StateCanceled {
						canceled = true
					}
				}
				if canceled {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the straggling original was never canceled on its member")
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestFederatedDegradedLocalFallback pins the zero-alive fallback: a
// federated campaign submitted to a coordinator whose fleet never
// materializes must not stall forever — after MemberTimeout the
// coordinator submits the orphaned window to its own queue as an
// ordinary ranged job (listed like any other, correlated to its
// parent), records the degradation in the warnings, and both the
// Result and the timing-stripped merged trace are byte-identical to the
// single-node run's.
func TestFederatedDegradedLocalFallback(t *testing.T) {
	spec := fullSpec("network-wise", 0.2)
	want := directResult(t, spec)

	coord, err := service.New(service.Config{
		Dir:            t.TempDir(),
		Coordinator:    true,
		MemberTimeout:  50 * time.Millisecond,
		FederationPoll: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, coord)

	s := spec
	s.Federated = true
	st, err := coord.Submit(s)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, coord, st.ID, service.StateCompleted)
	if !strings.Contains(strings.Join(final.Warnings, "\n"), "degraded mode") {
		t.Errorf("warnings %q do not record the degraded-mode fallback", final.Warnings)
	}
	if final.Done != final.Planned || final.Planned == 0 {
		t.Errorf("done %d of planned %d after degraded fallback", final.Done, final.Planned)
	}
	got, err := coord.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("degraded-mode Result differs from the direct single-node run")
	}
	trace, err := coord.Trace(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strippedReport(t, trace), strippedReport(t, singleNodeTrace(t, spec, nil)); got != want {
		t.Errorf("degraded-mode stripped trace differs from the single-node run\n--- merged ---\n%s--- single-node ---\n%s", got, want)
	}
	checkMergedTraceShape(t, trace, 1)
	var windows []service.JobStatus
	for _, js := range coord.List() {
		if js.Spec.FederatedJob == st.ID {
			windows = append(windows, js)
		}
	}
	if len(windows) != 1 || windows[0].State != service.StateCompleted || windows[0].Spec.FederatedMember != "coordinator" {
		t.Errorf("jobs correlated to %s = %+v, want the one completed window job of the coordinator", st.ID, windows)
	}
}

// TestFederatedDegradedWindowResumesAfterCoordinatorRestart pins what
// the coordinator's own copy inherits from the ordinary job path: shut
// down mid-window, the window's job checkpoints and re-pends with its
// parent, and the next daemon generation re-attaches to it by job ID,
// evaluating exactly the draws its checkpoint did not hold — with a
// Result byte-identical to the direct run.
func TestFederatedDegradedWindowResumesAfterCoordinatorRestart(t *testing.T) {
	spec := fullSpec("network-wise", 0.02) // ~4k draws: room to interrupt
	want := directResult(t, spec)
	dir := t.TempDir()
	config := func(evals *atomic.Int64, delay time.Duration) service.Config {
		return service.Config{
			Dir:            dir,
			Coordinator:    true,
			MemberTimeout:  50 * time.Millisecond,
			FederationPoll: 10 * time.Millisecond,
			BuildEvaluator: slowBuilder(delay, evals),
		}
	}

	var firstEvals atomic.Int64
	coord1, err := service.New(config(&firstEvals, 200*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	s := spec
	s.Federated = true
	st, err := coord1.Submit(s)
	if err != nil {
		t.Fatal(err)
	}
	var window string
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		for _, js := range coord1.List() {
			if js.Spec.FederatedJob == st.ID && js.Done >= 64 {
				window = js.ID
			}
		}
		if window != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the degraded window never reported 64 draws on the coordinator")
		}
	}
	mustShutdown(t, coord1)
	info, err := core.ReadCheckpointInfo(filepath.Join(dir, window+".ckpt"))
	if err != nil {
		t.Fatalf("window job %s: no checkpoint after shutdown: %v", window, err)
	}

	var secondEvals atomic.Int64
	coord2, err := service.New(config(&secondEvals, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, coord2)
	final := waitState(t, coord2, st.ID, service.StateCompleted)
	ws, err := coord2.Get(window)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Restored != info.Injections || ws.Restored == 0 {
		t.Errorf("window job restored %d draws, its checkpoint held %d", ws.Restored, info.Injections)
	}
	if got, want := secondEvals.Load(), final.Planned-info.Injections; got != want {
		t.Errorf("second generation evaluated %d draws, want planned %d − restored %d = %d",
			got, final.Planned, info.Injections, want)
	}
	got, err := coord2.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Result after a restart mid-window differs from the direct single-node run")
	}
	for _, js := range coord2.List() {
		if js.Spec.FederatedJob == st.ID && js.ID != window {
			t.Errorf("restart submitted a second window job %s", js.ID)
		}
	}
}

// TestStateWriteFailuresSurfaceAsWarnings pins the durability
// observability satellite: when the atomic state write starts failing
// (the volume vanished beneath the daemon), the failure lands on the
// job's warnings and bumps sfid_state_write_errors_total instead of
// passing silently.
func TestStateWriteFailuresSurfaceAsWarnings(t *testing.T) {
	dir := t.TempDir()
	var evals atomic.Int64
	svc, err := service.New(service.Config{Dir: dir, BuildEvaluator: slowBuilder(time.Millisecond, &evals)})
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, svc)

	// Submit while the volume is healthy (a submit-time persist failure
	// rejects the job outright — a different, fail-fast contract), then
	// yank the directory under the running campaign.
	st, err := svc.Submit(fullSpec("network-wise", 0.05))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc, st.ID, service.StateRunning)
	// The volume goes away atomically: the running job keeps writing its
	// checkpoint and trace, so removing dir in place races those creates
	// ("directory not empty"). Nothing resolves a path into the renamed
	// directory, so it can then be removed.
	gone := dir + ".gone"
	if err := os.Rename(dir, gone); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(gone); err != nil {
		t.Fatal(err)
	}

	// Every later persist — the terminal transition at the latest —
	// fails; the failure must land on the job, not vanish into a log.
	deadline := time.Now().Add(60 * time.Second)
	var cur service.JobStatus
	for {
		cur, err = svc.Get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if isTerminal(cur.State) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached a terminal state after the state dir vanished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(strings.Join(cur.Warnings, "\n"), "state write failed") {
		t.Errorf("warnings %q do not surface the failed state write", cur.Warnings)
	}
	if v := metricValue(t, svc, "sfid_state_write_errors_total"); v < 1 {
		t.Errorf("sfid_state_write_errors_total = %v, want >= 1", v)
	}
}
