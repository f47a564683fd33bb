package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cnnsfi/internal/core"
	"cnnsfi/internal/dataaware"
	"cnnsfi/internal/models"
	"cnnsfi/internal/oracle"
	"cnnsfi/internal/service"
	"cnnsfi/internal/stats"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestFlagValidation pins the one-line actionable error for every
// rejected input: exit code 1, a single "sfid: ..." line on stderr.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unexpected_argument", []string{"serve"}},
		{"empty_addr", []string{"-addr", ""}},
		{"negative_workers", []string{"-workers", "-1"}},
		{"zero_max_queue", []string{"-max-queue", "0"}},
		{"zero_drain_timeout", []string{"-drain-timeout", "0s"}},
		{"join_and_coordinator", []string{"-coordinator", "-join", "http://c:8766"}},
		{"advertise_without_join", []string{"-advertise", "http://m:8766"}},
		{"zero_member_timeout", []string{"-member-timeout", "0s"}},
		{"zero_heartbeat_interval", []string{"-heartbeat-interval", "0s"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			code := run(context.Background(), tc.args, &out, &errOut)
			if code != 1 {
				t.Fatalf("exit code = %d, want 1 (stderr: %q)", code, errOut.String())
			}
			if out.Len() != 0 {
				t.Errorf("stdout not empty: %q", out.String())
			}
			checkGolden(t, "err_"+tc.name+".golden", errOut.String())
		})
	}
	t.Run("bad_flag_exits_2", func(t *testing.T) {
		var out, errOut bytes.Buffer
		if code := run(context.Background(), []string{"-nosuch"}, &out, &errOut); code != 2 {
			t.Fatalf("exit code = %d, want 2", code)
		}
	})
}

// TestFlagTableMatchesDocs keeps docs/OPERATIONS.md's flag tables in
// step with the daemon: the flags -h lists must be exactly the
// | `-flag` | rows there, so a deleted flag cannot linger as
// documentation and a new one cannot go undocumented.
func TestFlagTableMatchesDocs(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"-h"}, &out, &errOut); code != 2 {
		t.Fatalf("-h exit code = %d, want 2", code)
	}
	flagNames := func(re *regexp.Regexp, text string) []string {
		var names []string
		for _, m := range re.FindAllStringSubmatch(text, -1) {
			names = append(names, m[1])
		}
		slices.Sort(names)
		return names
	}
	usage := flagNames(regexp.MustCompile(`(?m)^  -([\w-]+)`), errOut.String())
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	documented := flagNames(regexp.MustCompile("(?m)^\\| `-([\\w-]+)` \\|"), string(doc))
	if len(usage) == 0 || !slices.Equal(usage, documented) {
		t.Errorf("sfid -h lists %v\ndocs/OPERATIONS.md documents %v", usage, documented)
	}
}

// syncBuffer lets the test read daemon stderr while run() is still
// writing it from another goroutine.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenLine = regexp.MustCompile(`listening on (http://[^ ]+) \(state [^,]+, (\d+) jobs recovered\)`)

// startDaemon launches run() on an ephemeral port and waits for the
// listen banner, returning the base URL, recovered-job count, and a
// stop function that triggers the SIGTERM drain path and waits for exit.
func startDaemon(t *testing.T, dir string, extra ...string) (base string, recovered string, stderr *syncBuffer, stop func() int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	stderr = &syncBuffer{}
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, append([]string{
			"-addr", "127.0.0.1:0",
			"-state-dir", dir,
		}, extra...), io.Discard, stderr)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if m := listenLine.FindStringSubmatch(stderr.String()); m != nil {
			base, recovered = m[1], m[2]
			break
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("daemon never reported listening; stderr:\n%s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop = func() int {
		cancel()
		select {
		case code := <-done:
			return code
		case <-time.After(60 * time.Second):
			t.Fatalf("daemon did not exit; stderr:\n%s", stderr.String())
			return -1
		}
	}
	return base, recovered, stderr, stop
}

// directResult reproduces the sfirun path for the given spec.
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

// TestServiceSmokeGolden maintains the golden `make service-smoke`
// diffs a live daemon's served result against. The golden IS the
// direct-engine bytes for the smoke spec, so the shell-level smoke
// asserts the same bit-identity contract as the integration tests —
// regenerate with -update only when the campaign math itself changes.
func TestServiceSmokeGolden(t *testing.T) {
	spec := service.CampaignSpec{
		Model: "smallcnn", Substrate: "oracle", Approach: "data-aware",
		Margin: 0.05, Confidence: 0.99, ModelSeed: 1, OracleSeed: 3, Workers: 1,
	}
	checkGolden(t, "service_smoke.result.golden", string(directResult(t, spec)))
}

// TestDaemonServesAndResumesAcrossRestart is the SIGTERM ladder end to
// end at the binary level: serve, accept campaigns, drain on signal,
// restart over the same state directory, recover both jobs, and produce
// Results bit-identical to the direct engine path.
func TestDaemonServesAndResumesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	base, recovered, _, stop := startDaemon(t, dir)
	if recovered != "0" {
		t.Fatalf("fresh daemon recovered %s jobs, want 0", recovered)
	}

	spec := service.CampaignSpec{
		Model: "smallcnn", Substrate: "oracle", Approach: "network-wise",
		Margin: 0.05, Confidence: 0.99, ModelSeed: 1, OracleSeed: 3, Workers: 1,
	}
	var ids []string
	for i := 0; i < 2; i++ {
		body, _ := json.Marshal(spec)
		resp, err := http.Post(base+"/api/v1/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var st service.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit = %d, want 202", resp.StatusCode)
		}
		ids = append(ids, st.ID)
	}

	// SIGTERM-equivalent: drain (possibly mid-campaign) and exit clean.
	if code := stop(); code != 0 {
		t.Fatalf("first daemon exited %d, want 0", code)
	}

	base2, recovered2, stderr2, stop2 := startDaemon(t, dir)
	if recovered2 != "2" {
		t.Fatalf("restarted daemon recovered %s jobs, want 2 (stderr:\n%s)", recovered2, stderr2.String())
	}
	want := directResult(t, spec)
	for _, id := range ids {
		var st service.JobStatus
		deadline := time.Now().Add(60 * time.Second)
		for {
			resp, err := http.Get(base2 + "/api/v1/campaigns/" + id)
			if err != nil {
				t.Fatal(err)
			}
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if st.State == service.StateCompleted {
				break
			}
			if st.State == service.StateFailed || st.State == service.StateCanceled || time.Now().After(deadline) {
				t.Fatalf("job %s: state %s (error %q)", id, st.State, st.Error)
			}
			time.Sleep(5 * time.Millisecond)
		}
		resp, err := http.Get(fmt.Sprintf("%s/api/v1/campaigns/%s/result", base2, id))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		got.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result = %d: %s", resp.StatusCode, got.String())
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("job %s: daemon Result differs from direct engine Result", id)
		}
	}
	if code := stop2(); code != 0 {
		t.Fatalf("second daemon exited %d, want 0", code)
	}
	if s := stderr2.String(); !strings.Contains(s, "drained; state persisted for resume") {
		t.Errorf("drain banner missing from stderr:\n%s", s)
	}
}

// TestDaemonFederation wires the federation flags end to end at the
// binary level: one -coordinator daemon, two -join members registering
// over real HTTP, one federated submission — and the merged Result must
// be byte-identical to the direct single-node engine run.
func TestDaemonFederation(t *testing.T) {
	coordBase, _, coordStderr, stopCoord := startDaemon(t, t.TempDir(), "-coordinator")
	memberStops := make([]func() int, 2)
	memberStderrs := make([]*syncBuffer, 2)
	for i := range memberStops {
		_, _, memberStderr, stop := startDaemon(t, t.TempDir(),
			"-join", coordBase, "-heartbeat-interval", "100ms", "-member-name", fmt.Sprintf("m%d", i))
		memberStops[i] = stop
		memberStderrs[i] = memberStderr
	}
	// Wait until both members registered and heartbeat as alive.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(coordBase + "/api/v1/members")
		if err != nil {
			t.Fatal(err)
		}
		var list struct {
			Members []service.MemberStatus `json:"members"`
		}
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		alive := 0
		for _, m := range list.Members {
			if m.Alive {
				alive++
			}
		}
		if alive == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("members never registered: %+v", list.Members)
		}
		time.Sleep(10 * time.Millisecond)
	}

	spec := service.CampaignSpec{
		Model: "smallcnn", Substrate: "oracle", Approach: "data-aware",
		Margin: 0.05, Confidence: 0.99, ModelSeed: 1, OracleSeed: 3, Workers: 1,
		Federated: true,
	}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(coordBase+"/api/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("federated submit = %d, want 202", resp.StatusCode)
	}
	for {
		resp, err := http.Get(coordBase + "/api/v1/campaigns/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == service.StateCompleted {
			break
		}
		if st.State == service.StateFailed || st.State == service.StateCanceled || time.Now().After(deadline) {
			t.Fatalf("federated job %s: state %s (error %q)", st.ID, st.State, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err = http.Get(coordBase + "/api/v1/campaigns/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	got.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result = %d: %s", resp.StatusCode, got.String())
	}
	fedSpec := spec
	fedSpec.Federated = false
	if want := directResult(t, fedSpec); !bytes.Equal(got.Bytes(), want) {
		t.Errorf("federated daemon Result differs from direct engine Result")
	}
	for i, stop := range memberStops {
		if code := stop(); code != 0 {
			t.Errorf("member %d exited %d, want 0", i, code)
		}
		if s := memberStderrs[i].String(); !strings.Contains(s, "joining coordinator "+coordBase) {
			t.Errorf("member %d banner missing:\n%s", i, s)
		}
	}
	if code := stopCoord(); code != 0 {
		t.Errorf("coordinator exited %d, want 0", code)
	}
	if s := coordStderr.String(); !strings.Contains(s, "coordinator mode") {
		t.Errorf("coordinator banner missing:\n%s", s)
	}
}
