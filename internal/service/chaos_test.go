package service_test

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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
		StragglerRatio:   -1, // speculation pinned by TestFederatedStragglerSpeculation
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

// TestFederatedStragglerSpeculation pins speculative re-execution: a
// member whose progress rate sits far below the fleet median for the
// configured number of poll cycles gets its window speculatively
// re-dispatched to a spare member; the fast copy merges first, the
// crawling original is canceled before the merge, and the Result is
// still byte-identical — exactly one fetched copy of the window enters
// the merge.
func TestFederatedStragglerSpeculation(t *testing.T) {
	spec := fullSpec("network-wise", 0.02) // ~4k draws: two ~2k windows
	want := directResult(t, spec)

	coord, err := service.New(service.Config{
		Dir:             t.TempDir(),
		Coordinator:     true,
		MemberTimeout:   time.Hour,
		FederationPoll:  10 * time.Millisecond,
		StragglerRatio:  0.5,
		StragglerCycles: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, coord)

	var evals atomic.Int64
	// At 2ms per draw the tortoise needs seconds for its window. The
	// hare is 10× faster — slow enough that the poller samples its
	// progress rate (a part finishing inside the first poll cycle
	// would freeze a zero rate into the median pool), fast enough that
	// the speculative copy finishes long before the original.
	tortoise := startNode(t, memberConfig(1, slowBuilder(2*time.Millisecond, &evals)))
	defer tortoise.stop(t)
	hare := startNode(t, memberConfig(4, slowBuilder(200*time.Microsecond, &evals)))
	defer hare.stop(t)
	if _, err := coord.RegisterMember(tortoise.srv.URL, "tortoise"); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.RegisterMember(hare.srv.URL, "hare"); err != nil {
		t.Fatal(err)
	}

	s := spec
	s.Federated = true
	st, err := coord.Submit(s)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, coord, st.ID, service.StateCompleted)
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
}

// TestFederatedDegradedLocalFallback pins the zero-alive fallback: a
// federated campaign submitted to a coordinator whose fleet never
// materializes must not stall forever — after DegradedAfter the
// coordinator runs the orphaned window itself as an ordinary
// checkpointed ranged job, records the degradation in the warnings,
// and the Result is byte-identical to the direct run.
func TestFederatedDegradedLocalFallback(t *testing.T) {
	spec := fullSpec("network-wise", 0.2)
	want := directResult(t, spec)

	coord, err := service.New(service.Config{
		Dir:            t.TempDir(),
		Coordinator:    true,
		MemberTimeout:  time.Hour,
		FederationPoll: 10 * time.Millisecond,
		DegradedAfter:  50 * time.Millisecond,
		StragglerRatio: -1,
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
