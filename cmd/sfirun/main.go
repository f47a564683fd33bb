// Command sfirun executes statistical fault-injection campaigns and
// reproduces the paper's evaluation artifacts:
//
//	-table3          all four approaches vs exhaustive (Table III)
//	-fig5            per-layer exhaustive vs layer-wise vs data-aware
//	-fig6 -layer 0   ten replicated samples per approach for one layer
//	-fig7            per-layer network-wise vs data-aware vs exhaustive
//
// The -substrate flag selects the evaluator: "oracle" (full-scale
// simulated ground truth, default; see DESIGN.md for the substitution
// argument) or "inference" (real forward-pass injection; only feasible
// for -model smallcnn).
//
// Campaigns run through the unified engine, shard-parallel on all cores
// by default; -workers 1 forces serial evaluation. The same -run-seed
// produces bit-identical results at any worker count — and across
// interruption: with -checkpoint set, a campaign killed by -timeout or
// Ctrl-C persists its per-stratum tallies and a later invocation with
// -resume, at any -workers value, continues where it left off, ending in
// the exact Result an uninterrupted run would have produced. -progress streams per-stratum
// completion, running critical tallies, injections/sec, and the
// evaluator's experiment breakdown (masked-fault skips vs full
// evaluations, SDC early exits, scratch-arena bytes) to stderr. Every
// stratum evaluates its whole planned (Eq. 1) sample.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cnnsfi/internal/core"
	"cnnsfi/internal/evalstats"
	"cnnsfi/internal/oracle"
	"cnnsfi/internal/report"
	"cnnsfi/internal/telemetry"
	"cnnsfi/sfi"
)

func main() {
	// SIGTERM is the orderly-shutdown signal containers receive; both it
	// and Ctrl-C cancel the context so campaigns checkpoint before exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the whole CLI behind main, parameterised for testing: it
// parses args, executes the requested campaigns, writes artifacts to
// stdout and diagnostics to stderr, and returns the process exit code.
// Bad input yields one actionable line on stderr and exit code 1 — the
// CLI never panics.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sfirun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	model := fs.String("model", "resnet20", "model name (resnet20, mobilenetv2, smallcnn)")
	seed := fs.Int64("seed", 1, "weight-generation seed")
	oracleSeed := fs.Int64("oracle-seed", 3, "ground-truth labelling seed")
	runSeed := fs.Int64("run-seed", 0, "sampling seed")
	substrate := fs.String("substrate", "oracle", "evaluator: oracle or inference")
	images := fs.Int("images", 8, "evaluation-set size for the inference substrate")
	margin := fs.Float64("margin", 0.01, "requested error margin e, in (0,1)")
	confidence := fs.Float64("confidence", 0.99, "confidence level, in (0,1)")
	table3 := fs.Bool("table3", false, "print Table III")
	fig5 := fs.Bool("fig5", false, "print Fig. 5 series")
	fig6 := fs.Bool("fig6", false, "print Fig. 6 series")
	fig7 := fs.Bool("fig7", false, "print Fig. 7 series")
	layer := fs.Int("layer", 0, "layer for -fig6")
	replicas := fs.Int("replicas", 10, "replicated samples for -fig6")
	workers := fs.Int("workers", 0, "concurrent evaluation workers (0 = GOMAXPROCS, 1 = serial; both substrates — the inference injector clones per-worker weights)")
	progress := fs.Bool("progress", false, "stream campaign progress to stderr")
	checkpoint := fs.String("checkpoint", "", "checkpoint path prefix; campaigns persist per-stratum tallies there (one file per approach)")
	resume := fs.Bool("resume", false, "resume campaigns from existing -checkpoint files")
	timeout := fs.Duration("timeout", 0, "abort campaigns after this duration (0 = none); with -checkpoint, progress is preserved")
	expTimeout := fs.Duration("experiment-timeout", 0, "per-experiment watchdog deadline (0 = none); a timed-out experiment is retried under -max-retries, then quarantined")
	maxRetries := fs.Int("max-retries", -1, "retries per failing (panicking or timed-out) experiment before quarantine; negative disables campaign supervision entirely")
	traceFile := fs.String("trace", "", "record structured campaign trace events (JSONL) to this file; replay with sfitrace")
	traceSummary := fs.Bool("trace-summary", false, "after the campaigns finish, replay the -trace file and print a summary to stderr")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus metrics on /metrics and profiling on /debug/pprof at this address while campaigns run (e.g. localhost:9090)")
	if err := fs.Parse(args); err != nil {
		return 2 // flag package already printed the error + usage
	}

	// Validate inputs up-front with actionable one-line errors.
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "sfirun: "+format+"\n", args...)
		return 1
	}
	if *workers < 0 {
		return fail("-workers must be >= 0 (got %d); 0 selects all cores", *workers)
	}
	if *margin <= 0 || *margin >= 1 {
		return fail("-margin must be inside (0,1) (got %v); the paper uses 0.01", *margin)
	}
	if *confidence <= 0 || *confidence >= 1 {
		return fail("-confidence must be inside (0,1) (got %v); the paper uses 0.99", *confidence)
	}
	if *resume && *checkpoint == "" {
		return fail("-resume needs -checkpoint to know where the saved campaign lives")
	}
	if *timeout < 0 {
		return fail("-timeout must be >= 0 (got %v)", *timeout)
	}
	if *images <= 0 {
		return fail("-images must be > 0 (got %d)", *images)
	}
	if *replicas <= 0 {
		return fail("-replicas must be > 0 (got %d)", *replicas)
	}
	if *traceSummary && *traceFile == "" {
		return fail("-trace-summary needs -trace to know which trace to replay")
	}
	if *expTimeout < 0 {
		return fail("-experiment-timeout must be >= 0 (got %v); 0 disables the watchdog", *expTimeout)
	}

	if !*table3 && !*fig5 && !*fig6 && !*fig7 {
		*table3 = true
	}

	net, err := sfi.BuildModel(*model, *seed)
	if err != nil {
		return fail("unknown model %q; available: %v", *model, sfi.ModelNames())
	}

	// Campaigns stop cleanly on Ctrl-C or -timeout; with -checkpoint the
	// tallies survive for a -resume invocation.
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var ev sfi.Evaluator
	var exhaustive []float64
	switch *substrate {
	case "oracle":
		o := sfi.NewOracle(net, sfi.OracleDefaults(*oracleSeed))
		fmt.Fprintf(stderr, "enumerating exhaustive ground truth over %s faults...\n",
			report.Comma(o.Space().Total()))
		exhaustive = make([]float64, o.Space().NumLayers())
		for l := range exhaustive {
			exhaustive[l] = o.ExhaustiveLayerRate(l)
		}
		ev = o
	case "inference":
		if *model != "smallcnn" {
			return fail("inference substrate: exhaustive validation is only feasible for -model smallcnn")
		}
		ds := sfi.SyntheticDataset(sfi.DatasetConfig{N: *images, Seed: 1, Size: 16})
		inj := sfi.NewInjector(net, ds)
		fmt.Fprintf(stderr, "running exhaustive inference FI over %s faults × %d images...\n",
			report.Comma(inj.Space().Total()), *images)
		exhaustive = exhaustiveByInference(stderr, inj)
		ev = inj
	default:
		return fail("unknown substrate %q; available: oracle, inference", *substrate)
	}

	space := ev.Space()
	cfg := sfi.DefaultConfig()
	cfg.ErrorMargin = *margin
	cfg.Confidence = *confidence
	analysis := sfi.AnalyzeWeights(net.AllWeights())

	// Telemetry: the JSONL trace recorder and the metrics endpoint are
	// both optional and both strictly observational — the campaign
	// Result is bit-identical with or without them.
	var tracer *telemetry.Tracer
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return fail("-trace: %v", err)
		}
		tracer = telemetry.NewTracer(f, 1024)
		defer func() {
			if err := tracer.Close(); err != nil {
				fmt.Fprintf(stderr, "sfirun: trace: %v\n", err)
			}
			if d := tracer.Dropped(); d > 0 {
				fmt.Fprintf(stderr, "sfirun: trace: %d events dropped (incomplete trace)\n", d)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "sfirun: trace: %v\n", err)
			}
			if *traceSummary {
				printTraceSummary(stderr, *traceFile)
			}
		}()
	}
	var rateGauge, doneGauge *telemetry.Gauge
	if *metricsAddr != "" {
		reg := telemetry.NewRegistry()
		rateGauge = reg.Gauge("sfi_injections_per_second", "Campaign throughput over the running Execute call.")
		doneGauge = reg.Gauge("sfi_injections_done", "Injections tallied by the running campaign.")
		if sr, ok := ev.(sfi.StatsReporter); ok {
			reg.CounterFunc("sfi_masked_skips_total", "Experiments classified by the masked-fault short-circuit.",
				func() int64 { return sr.EvalStats().Skipped })
			reg.CounterFunc("sfi_evaluated_total", "Experiments that ran the full evaluation path.",
				func() int64 { return sr.EvalStats().Evaluated })
			reg.CounterFunc("sfi_early_exits_total", "Evaluated experiments ended by the SDC first-mismatch exit.",
				func() int64 { return sr.EvalStats().EarlyExits })
			reg.GaugeFunc("sfi_arena_bytes", "Scratch-arena storage retained across the evaluator and its clones.",
				func() float64 { return float64(sr.EvalStats().ArenaBytes) })
		}
		reg.GaugeFunc("sfi_watchdog_abandoned_lanes", "Watchdog-abandoned experiment goroutines still pinned by a hung evaluation.",
			func() float64 { return float64(sfi.WatchdogAbandonedLanes()) })
		if ls, ok := ev.(evalstats.LatencySampler); ok {
			hist := &evalstats.Histogram{}
			ls.SetLatencyHistogram(hist) // before Execute, so worker clones inherit it
			reg.Histogram("sfi_experiment_duration_seconds", "Wall time of fully evaluated experiments.", hist)
		}
		srv, err := telemetry.StartServer(*metricsAddr, reg)
		if err != nil {
			return fail("-metrics-addr: %v", err)
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "sfirun: serving metrics on http://%s/metrics (pprof on /debug/pprof/)\n", srv.Addr())
	}

	// Same seed ⇒ bit-identical Result at any worker count, with or
	// without an interrupt/resume cycle in between. errInterrupted means
	// the message is already on stderr and the process must exit 1.
	errInterrupted := errors.New("interrupted")
	runCampaign := func(name string, plan *sfi.Plan, seed int64) (*sfi.Result, error) {
		opts := []sfi.EngineOption{
			sfi.WithWorkers(*workers),
			sfi.WithWarnings(func(msg string) { fmt.Fprintf(stderr, "sfirun: %s: %s\n", name, msg) }),
		}
		if *expTimeout > 0 {
			opts = append(opts, sfi.WithExperimentTimeout(*expTimeout))
		}
		if *maxRetries >= 0 {
			opts = append(opts, sfi.WithMaxRetries(*maxRetries))
		}
		if *checkpoint != "" {
			opts = append(opts, sfi.WithCheckpoint(fmt.Sprintf("%s.%s.ckpt", *checkpoint, name)))
			if *resume {
				opts = append(opts, sfi.WithResume())
			}
		}
		var sinks []sfi.ProgressSink
		if *progress {
			sinks = append(sinks, progressPrinter(stderr, name))
		}
		if tracer != nil {
			opts = append(opts, sfi.WithTrace(tracer.Sink(name)))
			sinks = append(sinks, tracer.Progress(name))
		}
		if rateGauge != nil {
			rg, dg := rateGauge, doneGauge
			sinks = append(sinks, func(p sfi.Progress) {
				rg.Set(p.Rate)
				dg.Set(float64(p.Done))
			})
		}
		if len(sinks) > 0 {
			opts = append(opts, sfi.WithProgress(composeSinks(sinks)))
		}
		res, err := sfi.NewEngine(opts...).Execute(ctx, ev, plan, seed)
		if err != nil {
			if res != nil && res.Partial {
				fmt.Fprintf(stderr, "sfirun: campaign %q interrupted after %s of %s injections (%v)\n",
					name, report.Comma(res.Injections()), report.Comma(plan.TotalInjections()), err)
				if *checkpoint != "" {
					fmt.Fprintf(stderr, "sfirun: tallies saved; rerun with -checkpoint %s -resume to continue\n", *checkpoint)
				}
				return nil, errInterrupted
			}
			if hint := checkpointHint(err); hint != "" {
				fmt.Fprintf(stderr, "sfirun: campaign %q: %v\n", name, err)
				fmt.Fprintf(stderr, "sfirun: %s\n", hint)
				return nil, errInterrupted // message already printed; exit 1
			}
			return nil, fmt.Errorf("campaign %q: %v", name, err)
		}
		if n := len(res.Quarantined); n > 0 {
			fmt.Fprintf(stderr, "sfirun: %s: %d draw(s) quarantined after exhausting retries — excluded from the tally; per-stratum margins are over the reduced n\n",
				name, n)
		}
		return res, nil
	}
	campaignErr := func(err error) int {
		if errors.Is(err, errInterrupted) {
			return 1
		}
		return fail("%v", err)
	}

	plans := map[string]*sfi.Plan{
		"network-wise": sfi.PlanNetworkWise(space, cfg),
		"layer-wise":   sfi.PlanLayerWise(space, cfg),
		"data-unaware": sfi.PlanDataUnaware(space, cfg),
		"data-aware":   sfi.PlanDataAware(space, cfg, analysis.P),
	}
	order := []string{"network-wise", "layer-wise", "data-unaware", "data-aware"}

	if *table3 {
		tab := report.NewTable(
			fmt.Sprintf("Table III — %s (%s substrate)", net.NetName, *substrate),
			"Approach", "FIs (n)", "Injected Faults [%]", "Avg Error Margin [%] (acceptable<1%)", "Covered layers")
		tab.AddRow("exhaustive", space.Total(), "100.00%", "-", "-")
		for _, name := range order {
			res, err := runCampaign(name, plans[name], *runSeed)
			if err != nil {
				return campaignErr(err)
			}
			cmp := sfi.Compare(res, exhaustive)
			tab.AddRow(name, cmp.Injections, report.Pct(cmp.InjectedFraction),
				fmt.Sprintf("%.3f", cmp.AvgMargin*100),
				fmt.Sprintf("%d/%d", cmp.CoveredLayers, space.NumLayers()))
		}
		tab.Render(stdout)
		fmt.Fprintln(stdout)
	}

	if *fig5 {
		fmt.Fprintf(stdout, "# Fig. 5 — %s: per-layer critical rate, layer-wise and data-aware SFI vs exhaustive\n", net.NetName)
		lwRes, err := runCampaign("layer-wise", plans["layer-wise"], *runSeed)
		if err != nil {
			return campaignErr(err)
		}
		daRes, err := runCampaign("data-aware", plans["data-aware"], *runSeed)
		if err != nil {
			return campaignErr(err)
		}
		lw, da := sfi.Compare(lwRes, exhaustive), sfi.Compare(daRes, exhaustive)
		csv := report.NewCSV(stdout,
			"layer", "exhaustive",
			"layerwise_est", "layerwise_margin", "layerwise_n",
			"dataaware_est", "dataaware_margin", "dataaware_n")
		for l := 0; l < space.NumLayers(); l++ {
			a, b := lw.Layers[l], da.Layers[l]
			csv.Row(l, a.Exhaustive,
				a.Estimate.PHat(), a.Margin, a.Estimate.SampleSize(),
				b.Estimate.PHat(), b.Margin, b.Estimate.SampleSize())
		}
		fmt.Fprintln(stdout)
	}

	if *fig6 {
		if *layer < 0 || *layer >= space.NumLayers() {
			return fail("-layer must be in [0, %d) for %s", space.NumLayers(), net.NetName)
		}
		fmt.Fprintf(stdout, "# Fig. 6 — %s layer %d: %d replicated samples per approach (exhaustive = %.4f%%)\n",
			net.NetName, *layer, *replicas, exhaustive[*layer]*100)
		csv := report.NewCSV(stdout, "approach", "sample", "n", "estimate", "margin", "covers_exhaustive")
		for _, name := range order {
			reps := sfi.ReplicatedEstimates(ev, plans[name], *layer, *replicas)
			for s, est := range reps {
				csv.Row(name, fmt.Sprintf("S%d", s), est.SampleSize(), est.PHat(),
					est.Margin(cfg), est.Covers(cfg, exhaustive[*layer]))
			}
		}
		fmt.Fprintln(stdout)
	}

	if *fig7 {
		fmt.Fprintf(stdout, "# Fig. 7 — %s: per-layer critical rate, network-wise vs data-aware vs exhaustive\n", net.NetName)
		nwRes, err := runCampaign("network-wise", plans["network-wise"], *runSeed)
		if err != nil {
			return campaignErr(err)
		}
		daRes, err := runCampaign("data-aware", plans["data-aware"], *runSeed)
		if err != nil {
			return campaignErr(err)
		}
		nw, da := sfi.Compare(nwRes, exhaustive), sfi.Compare(daRes, exhaustive)
		csv := report.NewCSV(stdout,
			"layer", "exhaustive",
			"networkwise_est", "networkwise_margin", "networkwise_n",
			"dataaware_est", "dataaware_margin", "dataaware_n")
		for l := 0; l < space.NumLayers(); l++ {
			a, b := nw.Layers[l], da.Layers[l]
			csv.Row(l, a.Exhaustive,
				a.Estimate.PHat(), a.Margin, a.Estimate.SampleSize(),
				b.Estimate.PHat(), b.Margin, b.Estimate.SampleSize())
		}
	}
	return 0
}

// checkpointHint maps each checkpoint failure sentinel to one
// actionable line; empty for non-checkpoint errors.
func checkpointHint(err error) string {
	switch {
	case errors.Is(err, sfi.ErrCheckpointSeed):
		return "the checkpoint was written with a different -run-seed; rerun with the original seed, or delete the checkpoint file to start this seed fresh"
	case errors.Is(err, sfi.ErrCheckpointVersion):
		return "the checkpoint was written by an incompatible sfirun version; delete the checkpoint file to restart the campaign"
	case errors.Is(err, sfi.ErrCheckpointPlan):
		return "the checkpoint belongs to a different campaign plan (model, margin, confidence, substrate, or approach changed); point -checkpoint elsewhere or delete the file"
	case errors.Is(err, sfi.ErrCheckpointCorrupt):
		return "the checkpoint (and its .bak backup, if any) is unreadable; delete the checkpoint files to restart the campaign"
	}
	return ""
}

// composeSinks fans one progress stream out to several sinks, in order.
func composeSinks(sinks []sfi.ProgressSink) sfi.ProgressSink {
	if len(sinks) == 1 {
		return sinks[0]
	}
	return func(p sfi.Progress) {
		for _, s := range sinks {
			s(p)
		}
	}
}

// printTraceSummary replays the recorded trace into a human-readable
// report on w (the -trace-summary flag). Failures are diagnostics, not
// fatal — the campaigns already completed.
func printTraceSummary(w io.Writer, path string) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(w, "sfirun: trace summary: %v\n", err)
		return
	}
	defer f.Close()
	events, err := telemetry.ReadTrace(f)
	if err != nil {
		fmt.Fprintf(w, "sfirun: trace summary: %v\n", err)
		return
	}
	telemetry.Summarize(events).WriteReport(w, false)
}

// progressPrinter renders streaming engine events as stderr lines, one
// per shard-grid spacing of tallied draws plus a final summary carrying the evaluator's
// experiment breakdown (masked skips, evaluations, early exits, arena
// bytes).
func progressPrinter(w io.Writer, name string) sfi.ProgressSink {
	return func(p sfi.Progress) {
		pct := 0.0
		if p.Planned > 0 {
			pct = float64(p.Done) / float64(p.Planned) * 100
		}
		if p.Final {
			fmt.Fprintf(w, "%s: done %s/%s injections (%.1f%%) critical=%s in %s (%.0f inj/s)%s\n",
				name, report.Comma(p.Done), report.Comma(p.Planned), pct,
				report.Comma(p.Critical), p.Elapsed.Round(time.Millisecond), p.Rate,
				evalSuffix(p.Eval))
			return
		}
		fmt.Fprintf(w, "%s: %s/%s injections (%.1f%%) critical=%s stratum %d (%s/%s) %.0f inj/s\n",
			name, report.Comma(p.Done), report.Comma(p.Planned), pct, report.Comma(p.Critical),
			p.Stratum, report.Comma(p.StratumDone), report.Comma(p.StratumPlanned), p.Rate)
	}
}

// evalSuffix formats the skip/eval counters of a final progress event;
// empty when the evaluator reports no stats.
func evalSuffix(s sfi.EvalStats) string {
	if s.Experiments() == 0 {
		return ""
	}
	out := fmt.Sprintf(" [skipped %s masked, evaluated %s, early-exits %s",
		report.Comma(s.Skipped), report.Comma(s.Evaluated), report.Comma(s.EarlyExits))
	if s.ArenaBytes > 0 {
		out += fmt.Sprintf(", arena %s B", report.Comma(s.ArenaBytes))
	}
	return out + "]"
}

// exhaustiveByInference enumerates the whole population with real
// forward passes (SmallCNN only; ~2 minutes on one core).
func exhaustiveByInference(stderr io.Writer, inj *sfi.Injector) []float64 {
	space := inj.Space()
	rates := make([]float64, space.NumLayers())
	for l := 0; l < space.NumLayers(); l++ {
		var critical int64
		n := space.LayerTotal(l)
		for j := int64(0); j < n; j++ {
			if inj.IsCritical(space.LayerFault(l, j)) {
				critical++
			}
		}
		rates[l] = float64(critical) / float64(n)
		fmt.Fprintf(stderr, "  layer %d: %s faults, critical rate %.4f%%\n",
			l, report.Comma(n), rates[l]*100)
	}
	return rates
}

// Compile-time checks that both substrates satisfy the Evaluator and
// StatsReporter interfaces used above.
var (
	_ core.Evaluator     = (*oracle.Oracle)(nil)
	_ core.StatsReporter = (*oracle.Oracle)(nil)
	_ core.StatsReporter = (*sfi.Injector)(nil)
)
