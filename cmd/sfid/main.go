// Command sfid is the long-running campaign service: it schedules many
// statistical fault-injection campaigns against one shared worker pool
// and exposes an HTTP/JSON API to submit plans, stream progress (SSE),
// fetch results, and cancel jobs. Use sfictl (or curl) as the client;
// docs/API.md documents every endpoint and docs/OPERATIONS.md the
// operational surface.
//
// Durability: every job persists under -state-dir — the job record, the
// engine's checkpoint file while interrupted, and the final Result
// document. SIGTERM (or Ctrl-C) drains gracefully: running campaigns
// write a final checkpoint at their next shard boundary, and the next
// sfid over the same directory resumes each of them with zero
// re-evaluated draws. Results are bit-identical to an sfirun invocation
// of the same (plan, seed, workers), whether or not a restart happened
// in between.
//
// Federation: start one daemon with -coordinator and others with -join
// pointing at it, and campaigns submitted with "federated": true are
// split into contiguous per-stratum draw windows, run across the member
// fleet, and merged into a Result byte-identical to a single-node run —
// see "Running a member fleet" in docs/OPERATIONS.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cnnsfi/internal/core"
	"cnnsfi/internal/faultmodel"
	"cnnsfi/internal/nn"
	"cnnsfi/internal/resilience"
	"cnnsfi/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// delayedEvaluator wraps the default evaluator builder with a fixed
// per-experiment sleep. The verdicts (and therefore the Result) are
// untouched — only wall-clock throughput drops, which is exactly what
// the chaos smoke needs to turn one member into a straggler.
func delayedEvaluator(d time.Duration) service.EvaluatorBuilder {
	return func(spec service.CampaignSpec, net *nn.Network) (core.Evaluator, error) {
		inner, err := service.DefaultEvaluator(spec, net)
		if err != nil {
			return nil, err
		}
		return &slowEvaluator{inner: inner, delay: d}, nil
	}
}

type slowEvaluator struct {
	inner core.Evaluator
	delay time.Duration
}

func (e *slowEvaluator) IsCritical(f faultmodel.Fault) bool {
	time.Sleep(e.delay)
	return e.inner.IsCritical(f)
}
func (e *slowEvaluator) Space() faultmodel.Space { return e.inner.Space() }

// run is the whole daemon behind main, parameterised for testing: it
// serves until ctx is canceled, then drains (campaigns checkpoint and
// release) and returns. Bad input yields one actionable line on stderr
// and exit code 1.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sfid", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "localhost:8766", "HTTP listen address (host:port; :0 picks an ephemeral port)")
	stateDir := fs.String("state-dir", "sfid-state", "state directory: job records, checkpoints, results")
	workers := fs.Int("workers", 0, "size of the shared worker-token pool (0 = GOMAXPROCS)")
	maxQueue := fs.Int("max-queue", 64, "pending-queue cap; submissions beyond it get HTTP 429")
	drainTimeout := fs.Duration("drain-timeout", time.Minute, "max wait for running campaigns to checkpoint on shutdown")
	coordinator := fs.Bool("coordinator", false, "accept member registrations and federated submissions")
	memberTimeout := fs.Duration("member-timeout", 10*time.Second, "heartbeat age past which a member counts dead (coordinator)")
	join := fs.String("join", "", "coordinator base URL to register with as a member")
	advertise := fs.String("advertise", "", "base URL the coordinator should reach this member at (default the listen address)")
	memberName := fs.String("member-name", "", "display label for the member listing (default the hostname)")
	heartbeat := fs.Duration("heartbeat-interval", 2*time.Second, "cadence of the member's liveness pings")
	scrapeEvery := fs.Duration("scrape-interval", 2*time.Second, "cadence of the coordinator's member /metrics scrapes")
	rpcTimeout := fs.Duration("member-rpc-timeout", 5*time.Second, "per-attempt deadline for fleet RPCs (document fetches get six times this)")
	fedPoll := fs.Duration("federation-poll", 0, "coordinator's member-job polling cadence (0 = 500ms default)")
	chaosSpec := fs.String("chaos", "", "inject faults into this daemon's outbound fleet RPCs, e.g. \"drop=0.1,err=0.1,delay=5ms,flap=2s/500ms,seed=7\" (testing)")
	evalDelay := fs.Duration("eval-delay", 0, "artificial per-experiment delay, for inducing stragglers in fleet tests")
	if err := fs.Parse(args); err != nil {
		return 2 // flag package already printed the error + usage
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "sfid: "+format+"\n", args...)
		return 1
	}
	if fs.NArg() > 0 {
		return fail("unexpected argument %q; sfid takes only flags", fs.Arg(0))
	}
	if *addr == "" {
		return fail("-addr must not be empty")
	}
	if *workers < 0 {
		return fail("-workers must be >= 0 (got %d); 0 selects all cores", *workers)
	}
	if *maxQueue <= 0 {
		return fail("-max-queue must be > 0 (got %d)", *maxQueue)
	}
	if *drainTimeout <= 0 {
		return fail("-drain-timeout must be > 0 (got %v)", *drainTimeout)
	}
	if *coordinator && *join != "" {
		return fail("-coordinator and -join are mutually exclusive; a daemon plays one federation role")
	}
	if *join == "" && (*advertise != "" || *memberName != "") {
		return fail("-advertise and -member-name only apply with -join")
	}
	if *memberTimeout <= 0 {
		return fail("-member-timeout must be > 0 (got %v)", *memberTimeout)
	}
	if *heartbeat <= 0 {
		return fail("-heartbeat-interval must be > 0 (got %v)", *heartbeat)
	}
	if *scrapeEvery <= 0 {
		return fail("-scrape-interval must be > 0 (got %v)", *scrapeEvery)
	}
	if *rpcTimeout <= 0 {
		return fail("-member-rpc-timeout must be > 0 (got %v)", *rpcTimeout)
	}
	if *fedPoll < 0 {
		return fail("-federation-poll must be >= 0 (got %v)", *fedPoll)
	}
	if *evalDelay < 0 {
		return fail("-eval-delay must be >= 0 (got %v)", *evalDelay)
	}
	var transport http.RoundTripper
	if *chaosSpec != "" {
		chaos, err := resilience.ParseChaos(*chaosSpec)
		if err != nil {
			return fail("-chaos: %v", err)
		}
		transport = resilience.NewTransport(chaos, nil)
		fmt.Fprintf(stderr, "sfid: chaos transport active on outbound fleet RPCs (%s)\n", *chaosSpec)
	}
	var build service.EvaluatorBuilder
	if *evalDelay > 0 {
		build = delayedEvaluator(*evalDelay)
	}

	svc, err := service.New(service.Config{
		Dir:              *stateDir,
		TotalWorkers:     *workers,
		MaxQueue:         *maxQueue,
		Coordinator:      *coordinator,
		MemberTimeout:    *memberTimeout,
		ScrapeInterval:   *scrapeEvery,
		MemberRPCTimeout: *rpcTimeout,
		FederationPoll:   *fedPoll,
		Transport:        transport,
		BuildEvaluator:   build,
		Warnf: func(format string, args ...any) {
			fmt.Fprintf(stderr, "sfid: "+format+"\n", args...)
		},
	})
	if err != nil {
		return fail("%v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail("%v", err)
	}
	srv := &http.Server{Handler: service.NewMux(svc)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(stderr, "sfid: listening on http://%s (state %s, %d jobs recovered)\n",
		ln.Addr(), *stateDir, len(svc.List()))
	if *coordinator {
		fmt.Fprintln(stderr, "sfid: coordinator mode: accepting member registrations and federated submissions")
	}
	if *join != "" {
		adv := *advertise
		if adv == "" {
			adv = "http://" + ln.Addr().String()
		}
		name := *memberName
		if name == "" {
			name, _ = os.Hostname()
		}
		fmt.Fprintf(stderr, "sfid: joining coordinator %s as %q (advertising %s)\n", *join, name, adv)
		go service.JoinFleet(ctx, service.JoinConfig{
			Coordinator: strings.TrimRight(*join, "/"),
			Advertise:   adv,
			Name:        name,
			Interval:    *heartbeat,
			RPCTimeout:  *rpcTimeout,
			Transport:   transport,
			Warnf: func(format string, args ...any) {
				fmt.Fprintf(stderr, "sfid: "+format+"\n", args...)
			},
		})
	}

	select {
	case <-ctx.Done():
	case err := <-serveErr:
		return fail("serving: %v", err)
	}

	// Drain: stop accepting connections, then cancel every running
	// campaign and wait for their final checkpoints.
	fmt.Fprintln(stderr, "sfid: shutting down; draining campaigns...")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	if err := svc.Shutdown(dctx); err != nil {
		fmt.Fprintf(stderr, "sfid: drain: %v\n", err)
		code = 1
	}
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintf(stderr, "sfid: http shutdown: %v\n", err)
		code = 1
	}
	fmt.Fprintln(stderr, "sfid: drained; state persisted for resume")
	return code
}
