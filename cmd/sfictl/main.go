// Command sfictl is the client for the sfid campaign service:
//
//	sfictl submit -model smallcnn -approach data-aware   queue a campaign, print its job ID
//	sfictl list                                          list all campaigns
//	sfictl status -id j000001                            one campaign's status
//	sfictl watch -id j000001                             stream progress (SSE) until the job settles
//	sfictl result -id j000001                            fetch the Result document (sfirun-identical bytes)
//	sfictl trace -id j000001                             fetch the JSONL trace (pipe to sfitrace)
//	sfictl cancel -id j000001                            cancel a pending or running campaign
//	sfictl members                                       list a coordinator's registered member daemons
//	sfictl fleet                                         one-shot fleet view: members, health, running parts
//	sfictl top                                           the fleet view, refreshed until interrupted
//	sfictl submit -federated ...                         run one campaign across the member fleet
//
// Every subcommand takes -addr (default http://localhost:8766) and
// -timeout (default 30s; 0 disables), which bounds the whole subcommand
// except the streaming watch/top loops. Job IDs print on stdout, human
// diagnostics on stderr, so submit composes in scripts:
// id=$(sfictl submit ...). Exit codes: 0 success, 1 failure (one
// "sfictl: ..." line on stderr), 2 usage errors.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cnnsfi/internal/report"
	"cnnsfi/internal/service"
	"cnnsfi/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

const usageText = `usage: sfictl [-addr URL] <command> [flags]

commands:
  submit   queue a campaign (prints the job ID on stdout)
  list     list all campaigns
  status   print one campaign's status
  watch    stream a campaign's progress until it settles
  result   fetch a completed campaign's Result document
  trace    fetch a terminal campaign's JSONL trace
  cancel   cancel a pending or running campaign
  members  list a coordinator's registered member daemons
  fleet    print a coordinator's live fleet view
  top      refresh the fleet view periodically

run "sfictl <command> -h" for per-command flags.
`

// run dispatches the subcommand; it is the whole CLI behind main,
// parameterised for testing.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	// -addr may appear before the subcommand; parse it here so every
	// subcommand shares it.
	global := flag.NewFlagSet("sfictl", flag.ContinueOnError)
	global.SetOutput(stderr)
	global.Usage = func() { fmt.Fprint(stderr, usageText) }
	addr := global.String("addr", "http://localhost:8766", "sfid base URL")
	timeout := global.Duration("timeout", 30*time.Second, "bound on the whole subcommand (0 = none; watch and top are never bounded)")
	if err := global.Parse(args); err != nil {
		return 2
	}
	if *timeout < 0 {
		fmt.Fprintf(stderr, "sfictl: -timeout must be >= 0 (got %v)\n", *timeout)
		return 2
	}
	if global.NArg() == 0 {
		fmt.Fprint(stderr, usageText)
		return 2
	}
	cmd, rest := global.Arg(0), global.Args()[1:]
	c := &client{base: strings.TrimRight(*addr, "/"), stdout: stdout, stderr: stderr}
	// watch and top stream until the job (or the user) settles the
	// matter; every other subcommand is a bounded request/response
	// exchange that must not hang on a wedged daemon.
	if cmd != "watch" && cmd != "top" && *timeout > 0 {
		tctx, cancel := context.WithTimeout(ctx, *timeout)
		defer cancel()
		ctx = tctx
	}
	switch cmd {
	case "submit":
		return c.submit(ctx, rest)
	case "list":
		return c.list(ctx, rest)
	case "status":
		return c.status(ctx, rest)
	case "watch":
		return c.watch(ctx, rest)
	case "result":
		return c.result(ctx, rest)
	case "trace":
		return c.trace(ctx, rest)
	case "cancel":
		return c.cancel(ctx, rest)
	case "members":
		return c.members(ctx, rest)
	case "fleet":
		return c.fleet(ctx, rest)
	case "top":
		return c.top(ctx, rest)
	}
	fmt.Fprintf(stderr, "sfictl: unknown command %q\n", cmd)
	fmt.Fprint(stderr, usageText)
	return 2
}

type client struct {
	base   string
	stdout io.Writer
	stderr io.Writer
}

func (c *client) fail(format string, args ...any) int {
	fmt.Fprintf(c.stderr, "sfictl: "+format+"\n", args...)
	return 1
}

// newFlagSet builds a subcommand flag set with the shared error
// handling.
func (c *client) newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet("sfictl "+name, flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	return fs
}

// api issues one request and decodes the JSON response into out (unless
// out is nil). Non-2xx responses decode the error envelope into one
// actionable message.
func (c *client) api(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var eb struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			return fmt.Errorf("%s (HTTP %d)", eb.Error, resp.StatusCode)
		}
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out == nil {
		return nil
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = data
		return nil
	}
	return json.Unmarshal(data, out)
}

func (c *client) submit(ctx context.Context, args []string) int {
	fs := c.newFlagSet("submit")
	name := fs.String("name", "", "display name (default model/approach)")
	model := fs.String("model", "resnet20", "model name (resnet20, mobilenetv2, smallcnn)")
	substrate := fs.String("substrate", "oracle", "evaluator: oracle or inference")
	approach := fs.String("approach", "data-aware", "network-wise, layer-wise, data-unaware, or data-aware")
	margin := fs.Float64("margin", 0.01, "requested error margin e, in (0,1)")
	confidence := fs.Float64("confidence", 0.99, "confidence level, in (0,1)")
	modelSeed := fs.Int64("seed", 1, "weight-generation seed")
	oracleSeed := fs.Int64("oracle-seed", 3, "ground-truth labelling seed")
	runSeed := fs.Int64("run-seed", 0, "sampling seed")
	images := fs.Int("images", 8, "evaluation-set size for the inference substrate")
	workers := fs.Int("workers", 1, "worker count for this campaign, clamped to the daemon's pool (the Result is the same at any count)")
	priority := fs.Int("priority", 0, "queue priority; higher runs first")
	expTimeout := fs.Duration("experiment-timeout", 0, "per-experiment watchdog deadline (0 = none)")
	maxRetries := fs.Int("max-retries", -1, "retries per failing experiment before quarantine; negative disables supervision")
	federated := fs.Bool("federated", false, "run across the coordinator's member fleet (merged Result is byte-identical to a single-node run)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec := service.CampaignSpec{
		Name:                *name,
		Model:               *model,
		Substrate:           *substrate,
		Approach:            *approach,
		Margin:              *margin,
		Confidence:          *confidence,
		ModelSeed:           *modelSeed,
		OracleSeed:          *oracleSeed,
		RunSeed:             *runSeed,
		Images:              *images,
		Workers:             *workers,
		Priority:            *priority,
		ExperimentTimeoutMS: expTimeout.Milliseconds(),
		Federated:           *federated,
	}
	if *maxRetries >= 0 {
		spec.MaxRetries = maxRetries
	}
	var st service.JobStatus
	if err := c.api(ctx, http.MethodPost, "/api/v1/campaigns", spec, &st); err != nil {
		return c.fail("submit: %v", err)
	}
	fmt.Fprintf(c.stderr, "sfictl: submitted %s (%s, state %s", st.ID, st.Name, st.State)
	if st.QueuePosition > 0 {
		fmt.Fprintf(c.stderr, ", queue position %d", st.QueuePosition)
	}
	fmt.Fprintln(c.stderr, ")")
	fmt.Fprintln(c.stdout, st.ID)
	return 0
}

func (c *client) list(ctx context.Context, args []string) int {
	fs := c.newFlagSet("list")
	asJSON := fs.Bool("json", false, "print the raw JSON response")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var resp struct {
		Campaigns []service.JobStatus `json:"campaigns"`
	}
	if err := c.api(ctx, http.MethodGet, "/api/v1/campaigns", nil, &resp); err != nil {
		return c.fail("list: %v", err)
	}
	if *asJSON {
		enc := json.NewEncoder(c.stdout)
		enc.SetIndent("", " ")
		_ = enc.Encode(resp)
		return 0
	}
	tab := report.NewTable("Campaigns", "ID", "Name", "State", "Done", "Planned", "Critical")
	for _, st := range resp.Campaigns {
		tab.AddRow(st.ID, st.Name, string(st.State), st.Done, st.Planned, st.Critical)
	}
	tab.Render(c.stdout)
	return 0
}

func (c *client) status(ctx context.Context, args []string) int {
	fs := c.newFlagSet("status")
	id := fs.String("id", "", "job ID (required)")
	asJSON := fs.Bool("json", false, "print the raw JSON response")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *id == "" {
		return c.fail("status: -id is required")
	}
	var st service.JobStatus
	if err := c.api(ctx, http.MethodGet, "/api/v1/campaigns/"+*id, nil, &st); err != nil {
		return c.fail("status: %v", err)
	}
	if *asJSON {
		enc := json.NewEncoder(c.stdout)
		enc.SetIndent("", " ")
		_ = enc.Encode(st)
		return 0
	}
	c.printStatus(st)
	return 0
}

func (c *client) printStatus(st service.JobStatus) {
	fmt.Fprintf(c.stdout, "%s %s state=%s done=%s/%s critical=%s",
		st.ID, st.Name, st.State, report.Comma(st.Done), report.Comma(st.Planned), report.Comma(st.Critical))
	if st.QueuePosition > 0 {
		fmt.Fprintf(c.stdout, " queue=%d", st.QueuePosition)
	}
	if st.Restored > 0 {
		fmt.Fprintf(c.stdout, " restored=%s", report.Comma(st.Restored))
	}
	if st.Error != "" {
		fmt.Fprintf(c.stdout, " error=%q", st.Error)
	}
	fmt.Fprintln(c.stdout)
}

// watch consumes the SSE event stream, printing progress lines until
// the job reaches a terminal state. A dropped stream (daemon drain,
// proxy timeout) reconnects with Last-Event-ID so the server replays
// the retained frames the outage missed, and falls back to polling
// status — watch always ends with the truth.
func (c *client) watch(ctx context.Context, args []string) int {
	fs := c.newFlagSet("watch")
	id := fs.String("id", "", "job ID (required)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *id == "" {
		return c.fail("watch: -id is required")
	}
	var lastID string
	for {
		final, err := c.streamEvents(ctx, *id, &lastID)
		if err != nil {
			return c.fail("watch: %v", err)
		}
		if final != nil {
			return c.reportFinal(*final)
		}
		// Stream ended without a terminal event: re-check the job.
		var st service.JobStatus
		if err := c.api(ctx, http.MethodGet, "/api/v1/campaigns/"+*id, nil, &st); err != nil {
			return c.fail("watch: %v", err)
		}
		if st.State != service.StatePending && st.State != service.StateRunning {
			c.printStatus(st)
			return exitFor(st.State)
		}
		select {
		case <-ctx.Done():
			return c.fail("watch: %v", ctx.Err())
		case <-time.After(500 * time.Millisecond):
		}
	}
}

func exitFor(st service.JobState) int {
	if st == service.StateCompleted {
		return 0
	}
	return 1
}

func (c *client) reportFinal(ev service.JobStateEvent) int {
	fmt.Fprintf(c.stdout, "%s %s state=%s done=%s critical=%s",
		ev.ID, ev.Name, ev.State, report.Comma(ev.Done), report.Comma(ev.Critical))
	if ev.Error != "" {
		fmt.Fprintf(c.stdout, " error=%q", ev.Error)
	}
	fmt.Fprintln(c.stdout)
	return exitFor(ev.State)
}

// streamEvents reads one SSE connection. It returns the terminal
// job_state event if one arrived, or (nil, nil) when the stream ended
// without one. lastID tracks the newest `id:` line seen and is sent
// back as Last-Event-ID on the next connection, so a reconnect resumes
// where the dropped stream stopped.
func (c *client) streamEvents(ctx context.Context, id string, lastID *string) (*service.JobStateEvent, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/api/v1/campaigns/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	if *lastID != "" {
		req.Header.Set("Last-Event-ID", *lastID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		var eb struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			return nil, errors.New(eb.Error)
		}
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if seq, ok := strings.CutPrefix(line, "id: "); ok {
			*lastID = seq
			continue
		}
		payload, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue // blank separators and comments
		}
		var kind struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(payload), &kind); err != nil {
			continue
		}
		if kind.Kind == service.KindJobState {
			var ev service.JobStateEvent
			if err := json.Unmarshal([]byte(payload), &ev); err != nil {
				continue
			}
			if ev.State != service.StatePending && ev.State != service.StateRunning {
				return &ev, nil
			}
			continue
		}
		if kind.Kind == telemetry.KindProgress {
			ev, err := telemetry.ParseEvent([]byte(payload))
			if err != nil {
				continue
			}
			pct := 0.0
			if ev.Planned > 0 {
				pct = float64(ev.Done) / float64(ev.Planned) * 100
			}
			label := ev.Campaign
			if ev.Part != nil {
				// A federated job's per-part roll-up frame: attribute
				// the tallies to the member executing the window.
				label = fmt.Sprintf("%s part %d (%s)", ev.Campaign, *ev.Part, ev.Member)
			}
			fmt.Fprintf(c.stderr, "%s: %s/%s injections (%.1f%%) critical=%s %.0f inj/s\n",
				label, report.Comma(ev.Done), report.Comma(ev.Planned), pct,
				report.Comma(ev.Critical), ev.Rate)
		}
	}
	// EOF (or scanner error) without a terminal event: let the caller
	// poll and reconnect.
	return nil, nil
}

func (c *client) result(ctx context.Context, args []string) int {
	fs := c.newFlagSet("result")
	id := fs.String("id", "", "job ID (required)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *id == "" {
		return c.fail("result: -id is required")
	}
	var raw []byte
	if err := c.api(ctx, http.MethodGet, "/api/v1/campaigns/"+*id+"/result", nil, &raw); err != nil {
		return c.fail("result: %v", err)
	}
	_, err := c.stdout.Write(raw)
	if err != nil {
		return c.fail("result: %v", err)
	}
	return 0
}

// trace fetches a terminal campaign's JSONL event trace — the merged
// global trace for a completed federated job — suitable for piping
// into sfitrace.
func (c *client) trace(ctx context.Context, args []string) int {
	fs := c.newFlagSet("trace")
	id := fs.String("id", "", "job ID (required)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *id == "" {
		return c.fail("trace: -id is required")
	}
	var raw []byte
	if err := c.api(ctx, http.MethodGet, "/api/v1/campaigns/"+*id+"/trace", nil, &raw); err != nil {
		return c.fail("trace: %v", err)
	}
	if _, err := c.stdout.Write(raw); err != nil {
		return c.fail("trace: %v", err)
	}
	return 0
}

// members lists the coordinator's registered member daemons. A plain
// (non-coordinator) daemon answers 409, which surfaces as the usual
// one-line failure.
func (c *client) members(ctx context.Context, args []string) int {
	fs := c.newFlagSet("members")
	asJSON := fs.Bool("json", false, "print the raw JSON response")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var resp struct {
		Members []service.MemberStatus `json:"members"`
	}
	if err := c.api(ctx, http.MethodGet, "/api/v1/members", nil, &resp); err != nil {
		return c.fail("members: %v", err)
	}
	if *asJSON {
		enc := json.NewEncoder(c.stdout)
		enc.SetIndent("", " ")
		_ = enc.Encode(resp)
		return 0
	}
	tab := report.NewTable("Members", "ID", "Name", "URL", "Alive", "Last seen")
	for _, m := range resp.Members {
		tab.AddRow(m.ID, m.Name, m.URL, m.Alive, m.LastSeen.Format(time.RFC3339))
	}
	tab.Render(c.stdout)
	return 0
}

// fleet renders the coordinator's live fleet view once: one row per
// member with health and load, the federated parts assigned to each,
// and the fleet-wide roll-ups.
func (c *client) fleet(ctx context.Context, args []string) int {
	fs := c.newFlagSet("fleet")
	asJSON := fs.Bool("json", false, "print the raw JSON response")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var fl service.FleetStatus
	if err := c.api(ctx, http.MethodGet, "/api/v1/fleet", nil, &fl); err != nil {
		return c.fail("fleet: %v", err)
	}
	if *asJSON {
		enc := json.NewEncoder(c.stdout)
		enc.SetIndent("", " ")
		_ = enc.Encode(fl)
		return 0
	}
	c.printFleet(fl)
	return 0
}

func (c *client) printFleet(fl service.FleetStatus) {
	tab := report.NewTable("Fleet", "Member", "Name", "Up", "Heartbeat", "Queue", "Rate", "Parts")
	for _, m := range fl.Members {
		parts := make([]string, 0, len(m.Parts))
		for _, p := range m.Parts {
			parts = append(parts, fmt.Sprintf("%s#%d %s/%s",
				p.Job, p.Part, report.Comma(p.Done), report.Comma(p.Planned)))
		}
		tab.AddRow(m.Member.ID, m.Member.Name, m.Up,
			fmt.Sprintf("%.1fs", m.HeartbeatAgeSeconds), m.QueueLength,
			fmt.Sprintf("%.0f", m.Rate), strings.Join(parts, ", "))
	}
	tab.Render(c.stdout)
	fmt.Fprintf(c.stdout, "fleet: %s injections total, %.0f inj/s\n",
		report.Comma(fl.FleetInjectionsTotal), fl.FleetRate)
}

// top is fleet on a refresh loop: it clears the screen and re-renders
// the view every -interval until interrupted (or -n refreshes).
func (c *client) top(ctx context.Context, args []string) int {
	fs := c.newFlagSet("top")
	interval := fs.Duration("interval", 2*time.Second, "refresh cadence")
	count := fs.Int("n", 0, "number of refreshes before exiting (0 = until interrupted)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *interval <= 0 {
		return c.fail("top: -interval must be > 0 (got %v)", *interval)
	}
	for i := 0; ; i++ {
		var fl service.FleetStatus
		if err := c.api(ctx, http.MethodGet, "/api/v1/fleet", nil, &fl); err != nil {
			return c.fail("top: %v", err)
		}
		if i > 0 {
			fmt.Fprint(c.stdout, "\x1b[H\x1b[2J") // cursor home + clear
		}
		c.printFleet(fl)
		if *count > 0 && i+1 >= *count {
			return 0
		}
		select {
		case <-ctx.Done():
			return 0 // interrupt is how top normally ends
		case <-time.After(*interval):
		}
	}
}

func (c *client) cancel(ctx context.Context, args []string) int {
	fs := c.newFlagSet("cancel")
	id := fs.String("id", "", "job ID (required)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *id == "" {
		return c.fail("cancel: -id is required")
	}
	var st service.JobStatus
	if err := c.api(ctx, http.MethodDelete, "/api/v1/campaigns/"+*id, nil, &st); err != nil {
		return c.fail("cancel: %v", err)
	}
	fmt.Fprintf(c.stderr, "sfictl: %s is %s\n", st.ID, st.State)
	return 0
}
