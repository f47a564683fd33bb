package main

// The service-federated workload: one process holds a coordinator and
// two single-worker members, each a service.Service behind its HTTP mux
// on loopback. One closed-loop client alternates a federated job with
// its single-node twin on the coordinator; the twin's Result is the
// reference the federated merge must equal byte for byte.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cnnsfi/internal/service"
	"cnnsfi/sfi"
)

// Benchmark constants, identical on every commit measured.
const (
	fedPoll       = 25 * time.Millisecond  // coordinator's member-job polling cadence
	clientPoll    = 5 * time.Millisecond   // the client's job-status polling cadence
	heartbeat     = 500 * time.Millisecond // members' heartbeat cadence
	jobMargin     = 0.02                   // error margin of every job
	jobTimeout    = 60 * time.Second       // a job still running after this counts as failed
	fleetMembers  = 2
	fleetSetups   = 5
	fleetMinPairs = 5
)

// jobSpec is the service-smoke campaign (smallcnn, data-aware) on the
// inference substrate at batch 8, at the benchmark's margin.
func jobSpec(seed int64, federated bool) sfi.CampaignSpec {
	return sfi.CampaignSpec{
		Model: "smallcnn", Substrate: "inference", Approach: "data-aware",
		Margin: jobMargin, Batch: 8, Workers: 1, RunSeed: seed, Federated: federated,
	}
}

// daemon is one in-process service behind its HTTP mux.
type daemon struct {
	svc    *sfi.Service
	srv    *http.Server
	url    string
	served chan struct{} // closed when Serve returns
}

func startDaemon(cfg sfi.ServiceConfig) (*daemon, error) {
	svc, err := sfi.NewService(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Shutdown(context.Background()) // nothing submitted yet
		return nil, err
	}
	d := &daemon{svc: svc, srv: &http.Server{Handler: sfi.ServiceMux(svc)}, url: "http://" + ln.Addr().String(), served: make(chan struct{})}
	go func() {
		defer close(d.served)
		_ = d.srv.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	return d, nil
}

func (d *daemon) stop(ctx context.Context) error {
	err := d.svc.Shutdown(ctx)
	d.srv.Close()
	<-d.served
	return err
}

// fleet is a coordinator plus its registered members.
type fleet struct {
	dir      string
	coord    *daemon
	members  []*daemon
	stopJoin context.CancelFunc
	joined   sync.WaitGroup
}

// bootFleet starts the daemons and returns once every member is
// registered and alive on the coordinator.
func bootFleet(dir string, warnf func(string, ...any)) (*fleet, error) {
	f := &fleet{dir: dir, stopJoin: func() {}}
	coord, err := startDaemon(sfi.ServiceConfig{
		Dir: filepath.Join(dir, "coordinator"), Coordinator: true,
		FederationPoll: fedPoll, TotalWorkers: 1, Warnf: warnf,
	})
	if err != nil {
		return nil, err
	}
	f.coord = coord
	ctx, cancel := context.WithCancel(context.Background())
	f.stopJoin = cancel
	for k := 1; k <= fleetMembers; k++ {
		m, err := startDaemon(sfi.ServiceConfig{Dir: filepath.Join(dir, fmt.Sprintf("member%d", k)), TotalWorkers: 1, Warnf: warnf})
		if err != nil {
			f.close()
			return nil, err
		}
		f.members = append(f.members, m)
		f.joined.Add(1)
		go func(name string) {
			defer f.joined.Done()
			service.JoinFleet(ctx, service.JoinConfig{
				Coordinator: coord.url, Advertise: m.url, Name: name, Interval: heartbeat, Warnf: warnf,
			})
		}(fmt.Sprintf("member%d", k))
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		ms, err := coord.svc.Members()
		if err != nil {
			f.close()
			return nil, err
		}
		alive := 0
		for _, m := range ms {
			if m.Alive {
				alive++
			}
		}
		if alive == fleetMembers {
			return f, nil
		}
		if time.Now().After(deadline) {
			f.close()
			return nil, fmt.Errorf("only %d of %d members registered", alive, fleetMembers)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the heartbeats and every daemon; the state stays on disk.
func (f *fleet) close() error {
	f.stopJoin()
	f.joined.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var first error
	for _, d := range append([]*daemon{f.coord}, f.members...) {
		if d == nil {
			continue
		}
		if err := d.stop(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// client is the closed-loop load generator: one goroutine, one
// connection at a time.
type client struct{ hc *http.Client }

func newClient() *client {
	return &client{hc: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1}}}
}

// call sends one request and returns the status and body.
func (c *client) call(method, url string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// jobSample is one job's life as the client saw it.
type jobSample struct {
	id                 string
	latency            float64 // s, submit until the Result is in hand
	submitMs, resultMs float64
	queueWait, runS    float64 // s, from the job's own timestamps
	planned            int64
	result             []byte
	outcome            outcome
	err                error
}

// runJob submits spec, polls until the job is terminal, and fetches its
// Result. log, when non-nil, receives the job's spans.
func (c *client) runJob(base string, spec sfi.CampaignSpec, log *spanLog, parent int) jobSample {
	var js jobSample
	name := "job:twin"
	if spec.Federated {
		name = "job:federated"
	}
	sp := func(string) int { return -1 }
	end := func(int) {}
	if log != nil {
		sp = func(n string) int { return log.begin(n, parent) }
		end = log.end
		parent = log.begin(name, parent)
		defer log.end(parent)
	}
	t0 := time.Now()
	id := sp("submit")
	code, body, err := c.call(http.MethodPost, base+"/api/v1/campaigns", spec)
	end(id)
	js.submitMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		js.outcome, js.err = opFailed, err
		return js
	}
	var st sfi.JobStatus
	if code != http.StatusAccepted || json.Unmarshal(body, &st) != nil {
		js.outcome, js.err = opRefused, fmt.Errorf("submit: HTTP %d: %s", code, strings.TrimSpace(string(body)))
		return js
	}
	js.id = st.ID
	id = sp("wait")
	for st.State != "completed" && st.State != "failed" && st.State != "canceled" {
		if time.Since(t0) > jobTimeout {
			_, _, _ = c.call(http.MethodDelete, base+"/api/v1/campaigns/"+js.id, nil) // best effort
			end(id)
			js.outcome, js.err = opFailed, fmt.Errorf("job %s still %s after %v", js.id, st.State, jobTimeout)
			return js
		}
		time.Sleep(clientPoll)
		code, body, err = c.call(http.MethodGet, base+"/api/v1/campaigns/"+js.id, nil)
		if err == nil && code == http.StatusOK {
			err = json.Unmarshal(body, &st)
		}
		if err != nil || code != http.StatusOK {
			end(id)
			js.outcome, js.err = opFailed, fmt.Errorf("status of %s: HTTP %d: %v", js.id, code, err)
			return js
		}
	}
	end(id)
	if st.State != "completed" {
		js.outcome, js.err = opFailed, fmt.Errorf("job %s %s: %s", js.id, st.State, st.Error)
		return js
	}
	r0 := time.Now()
	id = sp("result")
	code, body, err = c.call(http.MethodGet, base+"/api/v1/campaigns/"+js.id+"/result", nil)
	end(id)
	js.resultMs = float64(time.Since(r0).Nanoseconds()) / 1e6
	js.latency = time.Since(t0).Seconds()
	if err != nil || code != http.StatusOK {
		js.outcome, js.err = opFailed, fmt.Errorf("result of %s: HTTP %d: %v", js.id, code, err)
		return js
	}
	js.result = body
	js.planned = st.Planned
	js.queueWait = st.StartedAt.Sub(st.SubmittedAt).Seconds()
	js.runS = st.FinishedAt.Sub(st.StartedAt).Seconds()
	return js
}

// jobPair is one closed-loop pass: a federated job, then its twin.
type jobPair struct {
	fed, twin jobSample
	wall      float64
	allocMB   float64
}

func (c *client) runPair(base string, seed int64, log *spanLog, parent int) jobPair {
	runtime.GC()
	a0 := totalAllocMB()
	t0 := time.Now()
	p := jobPair{fed: c.runJob(base, jobSpec(seed, true), log, parent)}
	p.twin = c.runJob(base, jobSpec(seed, false), log, parent)
	p.wall = time.Since(t0).Seconds()
	p.allocMB = totalAllocMB() - a0
	if p.fed.err == nil && p.twin.err == nil && !bytes.Equal(p.fed.result, p.twin.result) {
		p.fed.outcome = opMismatched
		fmt.Fprintf(os.Stderr, "campaignbench: federated job %s Result differs from twin %s\n", p.fed.id, p.twin.id)
	}
	return p
}

// metricValue reads one unlabeled series from a Prometheus exposition.
func metricValue(exposition []byte, name string) (float64, error) {
	sc := bufio.NewScanner(bytes.NewReader(exposition))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("metric %s not exposed", name)
}

// fleetCounters reads the coordinator's resilience counters.
func (c *client) fleetCounters(base string) (retries, speculative float64, err error) {
	code, body, err := c.call(http.MethodGet, base+"/metrics", nil)
	if err != nil || code != http.StatusOK {
		return 0, 0, fmt.Errorf("GET /metrics: HTTP %d: %v", code, err)
	}
	if retries, err = metricValue(body, "sfid_retries_total"); err != nil {
		return 0, 0, err
	}
	speculative, err = metricValue(body, "sfid_speculative_parts_total")
	return retries, speculative, err
}

// partJobs counts the ranged part jobs the members ran for the given
// federated jobs.
func (c *client) partJobs(members []*daemon, fedJobs map[string]bool) (int, error) {
	n := 0
	for _, m := range members {
		code, body, err := c.call(http.MethodGet, m.url+"/api/v1/campaigns", nil)
		if err != nil || code != http.StatusOK {
			return 0, fmt.Errorf("listing member jobs: HTTP %d: %v", code, err)
		}
		var list struct {
			Campaigns []sfi.JobStatus `json:"campaigns"`
		}
		if err := json.Unmarshal(body, &list); err != nil {
			return 0, err
		}
		for _, st := range list.Campaigns {
			if fedJobs[st.Spec.FederatedJob] {
				n++
			}
		}
	}
	return n, nil
}

// dirMB sums the sizes of the regular files under dir.
func dirMB(dir string) (float64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return float64(total) / (1 << 20), err
}

func runServiceFederated(cfg runConfig) (res *result, err error) {
	warnf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "campaignbench: service: "+format+"\n", args...)
	}
	reps := fleetSetups
	if cfg.trace {
		reps = 1
	}
	// Every set-up boots a fresh fleet under one run directory, removed
	// only after the measurement: deleting state frees disk blocks, and
	// their discards would otherwise land inside the timed window.
	stateRoot := filepath.Join(cfg.workdir, fmt.Sprintf("fleet-%d", os.Getpid()))
	defer func() {
		if rerr := os.RemoveAll(stateRoot); rerr != nil && err == nil {
			err = rerr
		}
	}()
	var setups []float64
	var f *fleet
	for i := 0; i < reps; i++ {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		f, err = bootFleet(filepath.Join(stateRoot, fmt.Sprint(i)), warnf)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer func() {
		if cerr := f.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	// Start the timed window with no dirty data or journal work pending
	// from the set-up (or from an earlier run).
	syscall.Sync()

	c := newClient()
	defer c.hc.CloseIdleConnections()
	retries0, spec0, err := c.fleetCounters(f.coord.url)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	var log *spanLog
	root := -1
	if cfg.trace {
		log = newSpanLog(cfg.run, t0)
		root = log.begin("workload:service-federated", -1)
	}
	// One untimed pair first, so the timed ones find every daemon warm.
	// Then the untraced pairs feed the end-to-end metrics; a traced run
	// alternates them with traced pairs.
	warm := c.runPair(f.coord.url, cfg.seed, nil, -1)
	var plain, traced []jobPair
	start := time.Now()
	for len(plain) < fleetMinPairs || time.Since(start) < cfg.window {
		plain = append(plain, c.runPair(f.coord.url, cfg.seed, nil, -1))
		if cfg.trace {
			traced = append(traced, c.runPair(f.coord.url, cfg.seed, log, root))
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	retries1, spec1, err := c.fleetCounters(f.coord.url)
	if err != nil {
		return nil, err
	}
	// Every pair is checked; only the untraced timed ones are measured.
	all := append(append(append([]jobPair(nil), plain...), traced...), warm)
	fedJobs := map[string]bool{}
	for _, p := range all {
		fedJobs[p.fed.id] = true
	}
	parts, err := c.partJobs(f.members, fedJobs)
	if err != nil {
		return nil, err
	}
	stateMB, err := dirMB(f.dir)
	if err != nil {
		return nil, err
	}

	res = &result{metrics: map[string]float64{}}
	// The first completed twin is the reference every Result must equal.
	var ref []byte
	var planned int64
	for _, p := range all {
		if p.twin.err == nil {
			ref, planned = p.twin.result, p.twin.planned
			break
		}
	}
	var fedLat, twinLat, pairWalls, allocs, submits, results, waits, twinRuns, overheads []float64
	for i, p := range all {
		for _, js := range []jobSample{p.fed, p.twin} {
			if js.err != nil {
				fmt.Fprintf(os.Stderr, "campaignbench: %v\n", js.err)
			} else {
				if !bytes.Equal(js.result, ref) {
					js.outcome = opMismatched // a mismatched job still completed: it is timed
				}
				submits = append(submits, js.submitMs)
				results = append(results, js.resultMs)
				waits = append(waits, js.queueWait)
			}
			res.ops.record(js.outcome)
		}
		if p.fed.err == nil && p.twin.err == nil && i < len(plain) {
			fedLat = append(fedLat, p.fed.latency)
			twinLat = append(twinLat, p.twin.latency)
			pairWalls = append(pairWalls, p.wall)
			allocs = append(allocs, p.allocMB)
		}
		if p.twin.err == nil {
			twinRuns = append(twinRuns, p.twin.runS)
			if p.fed.err == nil {
				overheads = append(overheads, p.fed.runS-p.twin.runS)
			}
		}
	}
	if len(pairWalls) == 0 {
		return nil, fmt.Errorf("no job pair completed")
	}
	fmt.Fprintf(cfg.out, "workload service-federated: %d members, poll %v, %d injections per job\n", fleetMembers, fedPoll, planned)
	fmt.Fprintf(cfg.out, "setup_s (boot + register): %s\n", summarize(setups))
	fmt.Fprintf(cfg.out, "federated job latency: %s, p90 %.6g\n  jobs: %.3f\ntwin job latency:      %s\n  jobs: %.3f\npair wall:             %s\n",
		summarize(fedLat), percentile(fedLat, 90), fedLat, summarize(twinLat), twinLat, summarize(pairWalls))
	m := res.metrics
	if cfg.trace {
		m["service.submit_ms"] = median(submits)
		m["service.queue_wait_s"] = median(waits)
		m["service.run_s"] = median(twinRuns)
		m["service.result_ms"] = median(results)
		m["service.state_mb"] = stateMB
		m["fleet.overhead_s"] = median(overheads)
		m["fleet.parts"] = float64(parts) / float64(len(all))
		m["fleet.retries"] = retries1 - retries0
		m["fleet.speculative_parts"] = spec1 - spec0
		pw := make([]float64, len(traced))
		for i, p := range traced {
			pw[i] = p.wall
		}
		m["trace.overhead_frac"] = median(pw)/median(pairWalls) - 1
		m["result_mismatch"] = float64(res.ops.mismatched)
		log.end(root)
		writeSelfTimes(cfg.out, log.selfTimes())
		path := fmt.Sprintf("%s/spans/service-federated-seed%d.jsonl.gz", cfg.workdir, cfg.seed)
		if err := log.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(cfg.out, "spans: %d written to %s\n", len(log.spans), path)
		return res, nil
	}
	campaign := median(pairWalls)
	m["campaign_s"] = campaign
	m["injections_per_s"] = float64(2*planned) / campaign
	m["setup_s"] = median(setups)
	m["alloc_mb"] = median(allocs)
	m["max_rss_mb"] = rss
	m["job_p50_s"] = median(fedLat)
	m["twin_job_p50_s"] = median(twinLat)
	m["jobs_per_s"] = 2 / campaign
	return res, nil
}
