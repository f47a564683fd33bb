package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cnnsfi/internal/core"
	"cnnsfi/internal/dataaware"
	"cnnsfi/internal/faultmodel"
	"cnnsfi/internal/models"
	"cnnsfi/internal/nn"
	"cnnsfi/internal/oracle"
	"cnnsfi/internal/service"
	"cnnsfi/internal/stats"
	"cnnsfi/internal/telemetry"
)

// fullSpec returns a completely explicit smallcnn spec so the service
// path and the direct-engine path agree without relying on defaults.
func fullSpec(approach string, margin float64) service.CampaignSpec {
	return service.CampaignSpec{
		Model:      "smallcnn",
		Substrate:  "oracle",
		Approach:   approach,
		Margin:     margin,
		Confidence: 0.99,
		ModelSeed:  1,
		OracleSeed: 3,
		RunSeed:    0,
		Images:     8,
		Workers:    1,
	}
}

// directResult runs the spec's campaign straight through core.Engine —
// the sfirun path — and returns the Result document bytes.
func directResult(t *testing.T, spec service.CampaignSpec) []byte {
	t.Helper()
	net, err := models.Build(spec.Model, spec.ModelSeed)
	if err != nil {
		t.Fatal(err)
	}
	ev := oracle.New(net, oracle.DefaultConfig(spec.OracleSeed))
	cfg := stats.DefaultConfig()
	cfg.ErrorMargin = spec.Margin
	cfg.Confidence = spec.Confidence
	var plan *core.Plan
	switch spec.Approach {
	case "network-wise":
		plan = core.PlanNetworkWise(ev.Space(), cfg)
	case "data-aware":
		plan = core.PlanDataAware(ev.Space(), cfg, dataaware.AnalyzeFP32(net.AllWeights()).P)
	default:
		t.Fatalf("directResult: unhandled approach %q", spec.Approach)
	}
	res, err := core.NewEngine(core.WithWorkers(spec.Workers)).Execute(context.Background(), ev, plan, spec.RunSeed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func isTerminal(st service.JobState) bool {
	return st == service.StateCompleted || st == service.StateFailed || st == service.StateCanceled
}

// waitState polls until the job reaches want, failing fast if it lands
// in a different terminal state.
func waitState(t *testing.T, svc *service.Service, id string, want service.JobState) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, err := svc.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if isTerminal(st.State) {
			t.Fatalf("job %s reached %s (error %q), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach %s in time", id, want)
	return service.JobStatus{}
}

func mustShutdown(t *testing.T, svc *service.Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServiceBitIdentity is the tentpole anchor: a campaign submitted
// over the sfid HTTP API must yield Result bytes identical to the same
// (plan, seed, workers) run directly through the engine (the sfirun
// path).
func TestServiceBitIdentity(t *testing.T) {
	svc, err := service.New(service.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, svc)
	srv := httptest.NewServer(service.NewMux(svc))
	defer srv.Close()

	spec := fullSpec("data-aware", 0.05)
	body, _ := json.Marshal(spec)
	resp, err := http.Post(srv.URL+"/api/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	waitState(t, svc, st.ID, service.StateCompleted)

	resp, err = http.Get(srv.URL + "/api/v1/campaigns/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got := new(bytes.Buffer)
	if _, err := got.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d, want 200 (body %s)", resp.StatusCode, got)
	}
	want := directResult(t, spec)
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("service Result differs from direct engine Result\n--- service ---\n%s--- direct ---\n%s", got, want)
	}
}

// gatedEvaluator wraps the oracle, blocking every evaluation until the
// shared gate closes — so tests can hold a job "running" while they
// arrange the queue — and counting evaluated draws.
type gatedEvaluator struct {
	inner core.Evaluator
	gate  <-chan struct{}
	count *atomic.Int64
}

func (g *gatedEvaluator) IsCritical(f faultmodel.Fault) bool {
	if g.gate != nil {
		<-g.gate
	}
	if g.count != nil {
		g.count.Add(1)
	}
	return g.inner.IsCritical(f)
}

func (g *gatedEvaluator) Space() faultmodel.Space { return g.inner.Space() }

// gatedBuilder records job start order and gates evaluations.
func gatedBuilder(starts chan<- string, gate <-chan struct{}, count *atomic.Int64) service.EvaluatorBuilder {
	return func(spec service.CampaignSpec, net *nn.Network) (core.Evaluator, error) {
		if starts != nil {
			starts <- spec.Name
		}
		return &gatedEvaluator{inner: oracle.New(net, oracle.DefaultConfig(spec.OracleSeed)), gate: gate, count: count}, nil
	}
}

func namedSpec(name string, priority int) service.CampaignSpec {
	spec := fullSpec("network-wise", 0.2)
	spec.Name = name
	spec.Priority = priority
	return spec
}

// TestSchedulerFairnessAndPriority pins the admission order: strict
// FIFO within a priority class, higher priorities first, one running
// job at a time with a single worker token.
func TestSchedulerFairnessAndPriority(t *testing.T) {
	starts := make(chan string, 8)
	gate := make(chan struct{})
	svc, err := service.New(service.Config{
		Dir:            t.TempDir(),
		TotalWorkers:   1,
		BuildEvaluator: gatedBuilder(starts, gate, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, svc)

	for _, spec := range []service.CampaignSpec{
		namedSpec("first", 0), // starts immediately, blocks on the gate
		namedSpec("low-a", 0), // queued
		namedSpec("low-b", 0), // queued behind low-a
		namedSpec("high", 5),  // jumps both low-priority jobs
	} {
		if _, err := svc.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	close(gate) // release: jobs now run one at a time, in admission order
	var order []string
	for len(order) < 4 {
		select {
		case name := <-starts:
			order = append(order, name)
		case <-time.After(30 * time.Second):
			t.Fatalf("only %v started", order)
		}
	}
	want := []string{"first", "high", "low-a", "low-b"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("start order = %v, want %v", order, want)
	}
}

// TestBackpressure pins the 429/503 semantics: a full pending queue
// rejects submissions with 429; a draining service answers 503 on both
// submit and healthz.
func TestBackpressure(t *testing.T) {
	gate := make(chan struct{})
	svc, err := service.New(service.Config{
		Dir:            t.TempDir(),
		TotalWorkers:   1,
		MaxQueue:       1,
		BuildEvaluator: gatedBuilder(nil, gate, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewMux(svc))
	defer srv.Close()

	submit := func(name string) (*http.Response, service.JobStatus) {
		body, _ := json.Marshal(namedSpec(name, 0))
		resp, err := http.Post(srv.URL+"/api/v1/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var st service.JobStatus
		_ = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		return resp, st
	}
	if resp, _ := submit("running"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", resp.StatusCode)
	}
	if resp, st := submit("queued"); resp.StatusCode != http.StatusAccepted || st.QueuePosition != 1 {
		t.Fatalf("second submit = %d (queue %d), want 202 at position 1", resp.StatusCode, st.QueuePosition)
	}
	if resp, _ := submit("rejected"); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap submit = %d, want 429", resp.StatusCode)
	}

	close(gate)
	mustShutdown(t, svc)
	if resp, _ := submit("draining"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit = %d, want 503", resp.StatusCode)
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
}

// TestCancel covers both cancellation paths (pending and running) and
// the 404/409 error semantics around them.
func TestCancel(t *testing.T) {
	gate := make(chan struct{})
	svc, err := service.New(service.Config{
		Dir:            t.TempDir(),
		TotalWorkers:   1,
		BuildEvaluator: gatedBuilder(nil, gate, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, svc)
	srv := httptest.NewServer(service.NewMux(svc))
	defer srv.Close()

	running, err := svc.Submit(namedSpec("running", 0))
	if err != nil {
		t.Fatal(err)
	}
	pending, err := svc.Submit(namedSpec("pending", 0))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc, running.ID, service.StateRunning)

	del := func(id string) (*http.Response, string) {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/api/v1/campaigns/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp, buf.String()
	}
	if resp, body := del(pending.ID); resp.StatusCode != http.StatusOK || !strings.Contains(body, `"canceled"`) {
		t.Fatalf("cancel pending = %d %s", resp.StatusCode, body)
	}
	if resp, _ := del(running.ID); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel running = %d, want 200", resp.StatusCode)
	}
	close(gate) // let the canceled engine reach its shard boundary
	st := waitState(t, svc, running.ID, service.StateCanceled)
	if st.Error == "" {
		t.Error("canceled job should carry an error note")
	}
	// Terminal jobs: cancel conflicts, result conflicts, unknown 404s.
	if resp, _ := del(running.ID); resp.StatusCode != http.StatusConflict {
		t.Fatalf("re-cancel = %d, want 409", resp.StatusCode)
	}
	resp, err := http.Get(srv.URL + "/api/v1/campaigns/" + running.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of canceled job = %d, want 409", resp.StatusCode)
	}
	if resp, _ := del("nosuch"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown = %d, want 404", resp.StatusCode)
	}
}

// slowBuilder wraps the oracle with a fixed per-evaluation delay and a
// shared evaluation counter — slow enough to interrupt mid-campaign,
// fast enough to finish promptly once resumed.
func slowBuilder(delay time.Duration, count *atomic.Int64) service.EvaluatorBuilder {
	return func(spec service.CampaignSpec, net *nn.Network) (core.Evaluator, error) {
		return &slowEvaluator{inner: oracle.New(net, oracle.DefaultConfig(spec.OracleSeed)), delay: delay, count: count}, nil
	}
}

type slowEvaluator struct {
	inner core.Evaluator
	delay time.Duration
	count *atomic.Int64
}

func (s *slowEvaluator) IsCritical(f faultmodel.Fault) bool {
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	s.count.Add(1)
	return s.inner.IsCritical(f)
}

func (s *slowEvaluator) Space() faultmodel.Space { return s.inner.Space() }

// TestShutdownResumesMultiJobWithZeroReEvaluation is the graceful-
// shutdown acceptance test: a drain with N campaigns in flight
// checkpoints all of them, and a second service over the same state
// directory resumes each one re-evaluating exactly planned−restored
// draws — zero draws twice — while still producing Results bit-
// identical to an uninterrupted direct engine run.
func TestShutdownResumesMultiJobWithZeroReEvaluation(t *testing.T) {
	dir := t.TempDir()
	const jobs = 3
	var firstEvals atomic.Int64
	svc, err := service.New(service.Config{
		Dir:            dir,
		TotalWorkers:   jobs,
		BuildEvaluator: slowBuilder(100*time.Microsecond, &firstEvals),
	})
	if err != nil {
		t.Fatal(err)
	}

	spec := fullSpec("network-wise", 0.02) // ~4k draws: long enough to interrupt
	ids := make([]string, jobs)
	for i := range ids {
		s := spec
		s.Name = fmt.Sprintf("job-%d", i)
		st, err := svc.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	// Let every campaign report progress, then drain mid-flight.
	for _, id := range ids {
		deadline := time.Now().Add(60 * time.Second)
		for {
			st, err := svc.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if st.Done >= 64 {
				break
			}
			if isTerminal(st.State) || time.Now().After(deadline) {
				t.Fatalf("job %s state %s done %d before drain", id, st.State, st.Done)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	mustShutdown(t, svc)

	// Every interrupted job must be checkpointed and re-queued on disk.
	restored := make(map[string]int64, jobs)
	for _, id := range ids {
		info, err := core.ReadCheckpointInfo(dir + "/" + id + ".ckpt")
		if err != nil {
			t.Fatalf("job %s: no checkpoint after drain: %v", id, err)
		}
		if info.Injections == 0 {
			t.Fatalf("job %s: empty checkpoint", id)
		}
		restored[id] = info.Injections
		st, err := svc.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != service.StatePending {
			t.Fatalf("job %s state after drain = %s, want pending", id, st.State)
		}
	}

	// Second daemon generation: no artificial delay, fresh counter.
	var secondEvals atomic.Int64
	svc2, err := service.New(service.Config{
		Dir:            dir,
		TotalWorkers:   jobs,
		BuildEvaluator: slowBuilder(0, &secondEvals),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, svc2)

	var wantSecond int64
	for _, id := range ids {
		st := waitState(t, svc2, id, service.StateCompleted)
		if st.Restored != restored[id] {
			t.Errorf("job %s restored %d draws, checkpoint held %d", id, st.Restored, restored[id])
		}
		wantSecond += st.Planned - restored[id]
	}
	if got := secondEvals.Load(); got != wantSecond {
		t.Errorf("second generation evaluated %d draws, want %d (zero re-evaluation of the %d checkpointed)",
			got, wantSecond, firstEvals.Load())
	}

	// And the interrupted-resumed Results still match the sfirun path.
	want := directResult(t, spec)
	for _, id := range ids {
		got, err := svc2.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("job %s: resumed Result differs from uninterrupted direct run", id)
		}
	}
}

// TestRecoverTerminalJobs pins restart behavior for settled jobs: a new
// service over an old state dir serves their statuses and results
// without re-running anything.
func TestRecoverTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	svc, err := service.New(service.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	spec := fullSpec("network-wise", 0.2)
	st, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, svc, st.ID, service.StateCompleted)
	want, err := svc.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	mustShutdown(t, svc)

	var evals atomic.Int64
	svc2, err := service.New(service.Config{Dir: dir, BuildEvaluator: slowBuilder(0, &evals)})
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, svc2)
	st2, err := svc2.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != service.StateCompleted || st2.Done != final.Done {
		t.Errorf("recovered job = %s done %d, want completed done %d", st2.State, st2.Done, final.Done)
	}
	got, err := svc2.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("recovered result differs")
	}
	if evals.Load() != 0 {
		t.Errorf("recovery re-evaluated %d draws of a completed job", evals.Load())
	}
	// A fresh submission continues the ID sequence instead of colliding.
	st3, err := svc2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st3.ID == st.ID {
		t.Errorf("recovered service reused job ID %s", st3.ID)
	}
}

// TestRecoverJobRecordWithEarlyStop: a pending job record persisted by
// a build that had margin-based early stop still loads (records decode
// tolerantly), ignores its "early_stop" value, and runs to the fixed-n
// Result of the same spec.
func TestRecoverJobRecordWithEarlyStop(t *testing.T) {
	dir := t.TempDir()
	spec := fullSpec("data-aware", 0.05)
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := fmt.Sprintf(`{"id":"j000001","seq":1,"spec":{"early_stop":0,%s,"state":"pending"}`, specJSON[1:])
	if err := os.WriteFile(filepath.Join(dir, "j000001.job.json"), []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, svc)
	waitState(t, svc, "j000001", service.StateCompleted)
	got, err := svc.Result("j000001")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, directResult(t, spec)) {
		t.Error("recovered early_stop record did not run the fixed-n campaign")
	}
}

// TestRangedJobReportsProgressWhileRunning: a member-sized ranged job,
// far below 10,000 draws, reports tallied draws and a rate while it
// runs under the default Config, so the fleet view and the backup rule
// see a running part's pace before it finishes.
func TestRangedJobReportsProgressWhileRunning(t *testing.T) {
	var evals atomic.Int64
	svc, err := service.New(service.Config{
		Dir:            t.TempDir(),
		BuildEvaluator: slowBuilder(200*time.Microsecond, &evals),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, svc)

	spec := fullSpec("network-wise", 0.02) // one ~4k-draw stratum
	spec.Ranges = []core.DrawRange{{From: 1000, To: 3000}}
	st, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		st, err = svc.Get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == service.StateRunning && st.Done > 0 && st.Rate > 0 {
			break
		}
		if isTerminal(st.State) || time.Now().After(deadline) {
			t.Fatalf("job %s reached %s with no running progress reported (done %d, rate %v)", st.ID, st.State, st.Done, st.Rate)
		}
	}
	waitState(t, svc, st.ID, service.StateCompleted)
}

// TestEventStream exercises the SSE endpoint end to end: the snapshot
// frame, progress events mid-run, and the terminal job_state frame.
func TestEventStream(t *testing.T) {
	var evals atomic.Int64
	svc, err := service.New(service.Config{
		Dir: t.TempDir(),
		// Slow the campaign down so the subscription reliably lands while
		// it is still emitting progress.
		BuildEvaluator: slowBuilder(200*time.Microsecond, &evals),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, svc)
	srv := httptest.NewServer(service.NewMux(svc))
	defer srv.Close()

	st, err := svc.Submit(fullSpec("network-wise", 0.05))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/api/v1/campaigns/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var sawSnapshot, sawProgress, sawTerminal bool
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		payload, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var kind struct {
			Kind  string           `json:"kind"`
			State service.JobState `json:"state"`
		}
		if err := json.Unmarshal([]byte(payload), &kind); err != nil {
			t.Fatalf("bad event %q: %v", payload, err)
		}
		switch kind.Kind {
		case service.KindJobState:
			if !sawSnapshot {
				sawSnapshot = true
				break
			}
			if kind.State == service.StateCompleted {
				sawTerminal = true
			}
		case telemetry.KindProgress:
			if _, err := telemetry.ParseEvent([]byte(payload)); err != nil {
				t.Fatalf("progress event does not parse: %v", err)
			}
			sawProgress = true
		}
		if sawTerminal {
			break
		}
	}
	if !sawSnapshot || !sawProgress || !sawTerminal {
		t.Errorf("stream saw snapshot=%v progress=%v terminal=%v, want all", sawSnapshot, sawProgress, sawTerminal)
	}
	// Subscribing to the finished job still ends cleanly with its state.
	resp2, err := http.Get(srv.URL + "/api/v1/campaigns/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp2.Body)
	resp2.Body.Close()
	if !strings.Contains(buf.String(), `"completed"`) {
		t.Errorf("late subscription got %q, want a completed job_state frame", buf.String())
	}
}

// TestSubmitValidation pins the 400 class: malformed JSON, unknown
// fields, and semantically invalid specs.
func TestSubmitValidation(t *testing.T) {
	svc, err := service.New(service.Config{Dir: t.TempDir(), TotalWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, svc)
	srv := httptest.NewServer(service.NewMux(svc))
	defer srv.Close()

	cases := []struct {
		name string
		body string
	}{
		{"malformed", `{"model": `},
		{"unknown_field", `{"model":"smallcnn","approach":"data-aware","bogus":1}`},
		{"bad_model", `{"model":"nosuch","approach":"data-aware"}`},
		{"bad_approach", `{"model":"smallcnn","approach":"nosuch"}`},
		{"bad_margin", `{"model":"smallcnn","approach":"data-aware","margin":2}`},
		{"inference_resnet", `{"model":"resnet20","approach":"data-aware","substrate":"inference"}`},
		{"negative_batch", `{"model":"smallcnn","approach":"data-aware","substrate":"inference","batch":-1}`},
		{"batch_on_oracle", `{"model":"smallcnn","approach":"data-aware","batch":8}`},
		// Margin-based early stop was removed; the strict decoder rejects
		// specs written for builds that had it.
		{"early_stop_removed", `{"model":"smallcnn","approach":"data-aware","early_stop":0}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/api/v1/campaigns", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", resp.StatusCode, buf.String())
			}
			if !strings.Contains(buf.String(), `"error"`) {
				t.Errorf("error body missing envelope: %s", buf.String())
			}
		})
	}
	if resp, err := http.Get(srv.URL + "/api/v1/campaigns/nosuch"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job status = %d, want 404", resp.StatusCode)
		}
	}
}

// TestSubmitClampsWorkers: a spec asking for more workers than the pool
// is accepted with its worker count clamped to the pool, and its Result
// is the bytes of a direct one-worker run — workers are not part of a
// job's identity.
func TestSubmitClampsWorkers(t *testing.T) {
	svc, err := service.New(service.Config{Dir: t.TempDir(), TotalWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, svc)
	spec := fullSpec("data-aware", 0.05)
	spec.Workers = 99
	st, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("Submit of a spec wider than the pool: %v", err)
	}
	final := waitState(t, svc, st.ID, service.StateCompleted)
	if final.Spec.Workers != 2 {
		t.Errorf("spec workers = %d, want clamped to the pool of 2", final.Spec.Workers)
	}
	got, err := svc.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	spec.Workers = 1
	if !bytes.Equal(got, directResult(t, spec)) {
		t.Error("clamped job's Result differs from the direct one-worker run")
	}
}

// TestBatchIsIgnored: the spec's batch field is accepted for
// compatibility and has no effect, so an inference job at batch 8
// serves Result bytes identical to the same job at batch 0.
func TestBatchIsIgnored(t *testing.T) {
	svc, err := service.New(service.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, svc)
	spec := fullSpec("data-aware", 0.1)
	spec.Substrate = "inference"
	var results [][]byte
	for _, batch := range []int{0, 8} {
		spec.Batch = batch
		st, err := svc.Submit(spec)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		waitState(t, svc, st.ID, service.StateCompleted)
		got, err := svc.Result(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, got)
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Errorf("batch 8 Result differs from batch 0\n--- batch 0 ---\n%s--- batch 8 ---\n%s", results[0], results[1])
	}
}

// TestMetricsCarryCampaignLabels asserts the /metrics endpoint exposes
// per-campaign labeled series alongside the service-level gauges.
func TestMetricsCarryCampaignLabels(t *testing.T) {
	svc, err := service.New(service.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, svc)
	srv := httptest.NewServer(service.NewMux(svc))
	defer srv.Close()

	st, err := svc.Submit(fullSpec("network-wise", 0.2))
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, svc, st.ID, service.StateCompleted)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	out := buf.String()
	for _, want := range []string{
		fmt.Sprintf(`sfid_campaign_done_injections{campaign=%q} %d`, st.ID, final.Done),
		fmt.Sprintf(`sfid_campaign_critical{campaign=%q}`, st.ID),
		`sfid_jobs{state="completed"} 1`,
		`sfid_submitted_total 1`,
		`sfid_workers_total`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
}
