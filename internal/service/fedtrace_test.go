package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cnnsfi/internal/service"
	"cnnsfi/internal/telemetry"
)

// strippedReport replays trace bytes through the summarizer with
// timing stripped — the deterministic view both the golden tests and
// the merged-trace identity below compare on.
func strippedReport(t *testing.T, trace []byte) string {
	t.Helper()
	events, err := telemetry.ReadTrace(bytes.NewReader(trace))
	if err != nil {
		t.Fatalf("reading trace: %v", err)
	}
	var buf bytes.Buffer
	telemetry.Summarize(events).WriteReport(&buf, true)
	return buf.String()
}

// singleNodeTrace runs the spec on a plain (non-federated) service and
// returns the recorded trace bytes. build selects the evaluator (nil =
// the default substrate); a federated comparison must run both sides on
// the same evaluator, since eval statistics are part of the stripped
// report.
func singleNodeTrace(t *testing.T, spec service.CampaignSpec, build service.EvaluatorBuilder) []byte {
	t.Helper()
	svc, err := service.New(service.Config{Dir: t.TempDir(), TotalWorkers: 8, BuildEvaluator: build})
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, svc)
	st, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc, st.ID, service.StateCompleted)
	data, err := svc.Trace(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkMergedTraceShape asserts the structural contract of a merged
// federated trace: one part_meta prologue per part whose draw windows
// tile each stratum exactly ([0, planned) with no gaps or overlaps —
// the "no duplicated or missing draws" guarantee), and every spliced
// interior event stamped with its part and member.
func checkMergedTraceShape(t *testing.T, trace []byte, parts int) {
	t.Helper()
	events, err := telemetry.ReadTrace(bytes.NewReader(trace))
	if err != nil {
		t.Fatalf("reading merged trace: %v", err)
	}
	planned := map[int]int64{} // stratum → sample size
	for _, ev := range events {
		if ev.Kind == "stratum_start" {
			planned[ev.Stratum] = ev.StratumPlanned
		}
	}
	if len(planned) == 0 {
		t.Fatal("merged trace has no stratum_start events")
	}

	var metas []telemetry.Event
	for _, ev := range events {
		switch ev.Kind {
		case telemetry.KindPartMeta:
			metas = append(metas, ev)
		case "shard_done", "experiment_retry", "experiment_quarantined":
			if ev.FederatedJob == "" || ev.Part == nil || ev.Member == "" {
				t.Errorf("spliced %s event lacks correlation fields: %+v", ev.Kind, ev)
			}
		}
	}
	if len(metas) != parts {
		t.Fatalf("merged trace has %d part_meta prologues, want %d", len(metas), parts)
	}
	for s, n := range planned {
		var next int64
		for k, pm := range metas {
			if pm.Part == nil || *pm.Part != k {
				t.Fatalf("part_meta %d carries part index %v, want %d", k, pm.Part, k)
			}
			if s >= len(pm.Ranges) {
				t.Fatalf("part %d declares %d ranges, no window for stratum %d", k, len(pm.Ranges), s)
			}
			r := pm.Ranges[s]
			if r.From != next {
				t.Errorf("stratum %d part %d window starts at %d, want %d (gap or overlap)", s, k, r.From, next)
			}
			next = r.To
		}
		if next != n {
			t.Errorf("stratum %d windows end at %d, want the full sample size %d", s, next, n)
		}
	}
}

// TestFederatedTraceIdentity is the observability tentpole anchor: the
// coordinator's merged trace, stripped of timing, must be byte-
// identical to a single-node run's stripped trace of the same (plan,
// seed) — at 2 and 3 members, and with the single node running a
// different worker count than the member jobs.
func TestFederatedTraceIdentity(t *testing.T) {
	spec := fullSpec("data-aware", 0.05)
	spec.Workers = 2 // differs from the federated member jobs' 1
	want := strippedReport(t, singleNodeTrace(t, spec, nil))

	for _, members := range []int{2, 3} {
		t.Run(fmt.Sprintf("members_%d", members), func(t *testing.T) {
			coord, err := service.New(coordConfig(t.TempDir(), time.Hour))
			if err != nil {
				t.Fatal(err)
			}
			defer mustShutdown(t, coord)
			var nodes []*fedNode
			for i := 0; i < members; i++ {
				m := startNode(t, memberConfig(4, nil))
				defer m.stop(t)
				if _, err := coord.RegisterMember(m.srv.URL, fmt.Sprintf("node-%d", i)); err != nil {
					t.Fatal(err)
				}
				nodes = append(nodes, m)
			}
			s := spec
			s.Workers = 1
			s.Federated = true
			st, err := coord.Submit(s)
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, coord, st.ID, service.StateCompleted)
			got, err := coord.Trace(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if stripped := strippedReport(t, got); stripped != want {
				t.Errorf("merged stripped trace differs from the single-node run\n--- merged ---\n%s--- single-node ---\n%s", stripped, want)
			}
			checkMergedTraceShape(t, got, members)
			// A part trace's strata end at its window's end, short of
			// their planned n: the summary must not flag them.
			for _, m := range nodes {
				for _, j := range m.svc.List() {
					trace, err := m.svc.Trace(j.ID)
					if err != nil {
						t.Fatal(err)
					}
					if r := strippedReport(t, trace); strings.Contains(r, "SHORT") {
						t.Errorf("member part trace of job %s flagged short:\n%s", j.ID, r)
					}
				}
			}
		})
	}
}

// TestFederatedTraceSurvivesMemberDeath is the chaos half of the trace
// contract: killing a member mid-part loses that member's local trace,
// but the reassigned windows re-run on a survivor — so the merged trace
// still tiles every stratum exactly and strips to the single-node
// report, with no duplicated or missing draw accounting.
func TestFederatedTraceSurvivesMemberDeath(t *testing.T) {
	spec := fullSpec("network-wise", 0.02) // ~4k draws: room to interrupt
	var baselineEvals atomic.Int64
	want := strippedReport(t, singleNodeTrace(t, spec, slowBuilder(0, &baselineEvals)))

	coord, err := service.New(coordConfig(t.TempDir(), 400*time.Millisecond))
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
	cancels[victim]()
	nodes[victim].srv.Close()
	sdCtx, sdCancel := context.WithTimeout(context.Background(), 30*time.Second)
	_ = nodes[victim].svc.Shutdown(sdCtx)
	sdCancel()

	final := waitState(t, coord, st.ID, service.StateCompleted)
	got, err := coord.Trace(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if stripped := strippedReport(t, got); stripped != want {
		t.Errorf("merged stripped trace after member death differs from the single-node run\n--- merged ---\n%s--- single-node ---\n%s", stripped, want)
	}
	// The reassignment may have grown the part list; derive the expected
	// prologue count from the trace itself and validate the tiling.
	parts := strings.Count(string(got), `"kind":"part_meta"`)
	if parts < 2 {
		t.Fatalf("merged trace has %d part_meta prologues, want at least the original 2", parts)
	}
	checkMergedTraceShape(t, got, parts)
	if final.Done != final.Planned {
		t.Errorf("done %d of planned %d after reassignment", final.Done, final.Planned)
	}
	survivor := nodes[1-victim]
	survivor.stop(t)
}

// TestFederatedSSEAccounting subscribes to a federated job's event
// stream over real HTTP and checks the progress arithmetic: the last
// aggregate frame accounts for exactly the plan's total draws, and the
// last per-part frames (labelled federated_job/part/member) sum to the
// same total.
func TestFederatedSSEAccounting(t *testing.T) {
	coord, err := service.New(coordConfig(t.TempDir(), time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, coord)
	coordSrv := httptest.NewServer(service.NewMux(coord))
	defer coordSrv.Close()
	for i := 0; i < 2; i++ {
		m := startNode(t, memberConfig(4, nil))
		defer m.stop(t)
		if _, err := coord.RegisterMember(m.srv.URL, fmt.Sprintf("node-%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	spec := fullSpec("data-aware", 0.05)
	spec.Federated = true
	st, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		coordSrv.URL+"/api/v1/campaigns/"+st.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	var aggregate *telemetry.Event
	partFinal := map[int]telemetry.Event{}
	lastEventID := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if seq, ok := strings.CutPrefix(line, "id: "); ok {
			lastEventID = seq
			continue
		}
		payload, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var kind struct {
			Kind  string           `json:"kind"`
			State service.JobState `json:"state"`
		}
		if json.Unmarshal([]byte(payload), &kind) != nil {
			continue
		}
		if kind.Kind == service.KindJobState {
			if kind.State == service.StateCompleted {
				break
			}
			continue
		}
		if kind.Kind != telemetry.KindProgress {
			continue
		}
		ev, err := telemetry.ParseEvent([]byte(payload))
		if err != nil {
			t.Fatalf("unparseable SSE progress frame %q: %v", payload, err)
		}
		if ev.Part != nil {
			if ev.FederatedJob != st.ID || ev.Member == "" {
				t.Errorf("per-part frame lacks correlation fields: %s", payload)
			}
			partFinal[*ev.Part] = ev
		} else {
			e := ev
			aggregate = &e
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	if lastEventID == "" {
		t.Error("stream carried no id: lines (Last-Event-ID resume impossible)")
	}

	final := waitState(t, coord, st.ID, service.StateCompleted)
	if aggregate == nil {
		t.Fatal("stream delivered no aggregate progress frame")
	}
	if !aggregate.Final || aggregate.Done != final.Planned || aggregate.Planned != final.Planned {
		t.Errorf("last aggregate frame done=%d planned=%d final=%v, want done=planned=%d final=true",
			aggregate.Done, aggregate.Planned, aggregate.Final, final.Planned)
	}
	if len(partFinal) != 2 {
		t.Fatalf("saw per-part frames for %d parts, want 2", len(partFinal))
	}
	var sumDone, sumPlanned int64
	for k, ev := range partFinal {
		if !ev.Final {
			t.Errorf("part %d's last frame is not final", k)
		}
		sumDone += ev.Done
		sumPlanned += ev.Planned
	}
	if sumDone != final.Planned || sumPlanned != final.Planned {
		t.Errorf("per-part frames sum to done=%d planned=%d, want both == %d",
			sumDone, sumPlanned, final.Planned)
	}
}

// TestTraceEndpointLifecycle pins the serving rules: 409 while the job
// is live, the recorded prefix once terminal, 404 for unknown jobs.
func TestTraceEndpointLifecycle(t *testing.T) {
	svc, err := service.New(service.Config{Dir: t.TempDir(), TotalWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, svc)
	if _, err := svc.Trace("nosuch"); err == nil {
		t.Error("Trace of unknown job should fail")
	}
	st, err := svc.Submit(fullSpec("network-wise", 0.2))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc, st.ID, service.StateCompleted)
	data, err := svc.Trace(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	events, err := telemetry.ReadTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[len(events)-1].Kind != "campaign_end" {
		t.Errorf("completed job's trace has %d events, want a campaign_end-terminated trace", len(events))
	}
	// The trace is labelled with the campaign name, same as sfirun's.
	if got := events[0].Campaign; got != st.Name {
		t.Errorf("trace campaign label = %q, want the campaign name %q", got, st.Name)
	}
}
