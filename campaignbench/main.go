// Command campaignbench is the repository's benchmark: it times
// statistical fault-injection campaigns end to end and attributes their
// cost to the system's layers (nn kernels, the inject experiment, the
// oracle, the core engine, planning, the service and the fleet).
//
//	campaignbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Each invocation runs one workload in its own process. The seed is the
// campaigns' sampling seed and the only input-changing argument; model,
// oracle and dataset seeds are fixed. With --trace 0 the last line of
// standard output is a JSON object carrying every end-to-end metric;
// with --trace 1 a separate, instrumented run reports every per-layer
// metric instead (zero for a layer the workload does not exercise).
// Every Result a run produces is compared byte for byte with a reference
// made by a different path; a mismatch fails the run. See METRICS.md for
// the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them (see METRICS.md for the per-workload meaning of a
// "job"). Tail latencies appear in the human report only: on a
// two-CPU host they swing with the host's scheduling phases far more
// than any bound a regression check could use.
var endToEnd = []metricDef{
	{"campaign_s", "s"},
	{"injections_per_s", "1/s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"max_rss_mb", "MB"},
	{"job_p50_s", "s"},
	{"twin_job_p50_s", "s"},
	{"jobs_per_s", "1/s"},
}

// maxWeightLayers bounds the L<k> metric families: ResNet-20 has 20
// weight layers, SmallCNN 4.
const maxWeightLayers = 20

// perLayer are the traced run's metrics, one family per system layer.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"nn.forward_us", "us"},
		{"nn.forward_gflops", "GFLOP/s"},
	}
	for k := 0; k < maxWeightLayers; k++ {
		defs = append(defs, metricDef{fmt.Sprintf("nn.suffix_us.L%d", k), "us"})
	}
	defs = append(defs,
		metricDef{"inject.setup_s", "s"},
		metricDef{"inject.experiment_us", "us"},
	)
	for k := 0; k < maxWeightLayers; k++ {
		defs = append(defs, metricDef{fmt.Sprintf("inject.experiment_us.L%d", k), "us"})
	}
	return append(defs,
		metricDef{"inject.masked_frac", "frac"},
		metricDef{"inject.early_exit_frac", "frac"},
		metricDef{"inject.arena_kb", "KiB"},
		metricDef{"oracle.verdict_ns", "ns"},
		metricDef{"oracle.exhaustive_s", "s"},
		metricDef{"plan.build_ms", "ms"},
		metricDef{"core.execute_s", "s"},
		metricDef{"core.eval_busy_s", "s"},
		metricDef{"core.worker_idle_frac", "frac"},
		metricDef{"core.engine_only_s", "s"},
		metricDef{"core.engine_only_alloc_mb", "MB"},
		metricDef{"core.calls", "count"},
		metricDef{"service.submit_ms", "ms"},
		metricDef{"service.queue_wait_s", "s"},
		metricDef{"service.run_s", "s"},
		metricDef{"service.result_ms", "ms"},
		metricDef{"service.state_mb", "MB"},
		metricDef{"fleet.overhead_s", "s"},
		metricDef{"fleet.parts", "count"},
		metricDef{"fleet.retries", "count"},
		metricDef{"fleet.speculative_parts", "count"},
		metricDef{"trace.overhead_frac", "frac"},
		metricDef{"result_mismatch", "count"},
	)
}()

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	window  time.Duration // how long the timed passes run
	trace   bool
	workers int    // campaign workers: one per CPU
	workdir string // scratch space inside the checkout
	out     io.Writer
	run     string // run id shared by every span of the run
}

// result is what a workload hands back: the operation tally, the
// metrics of the requested kind, and correctness problems found outside
// the operation tally.
type result struct {
	ops      tally
	metrics  map[string]float64
	problems []string
}

type workload struct {
	name string
	run  func(cfg runConfig) (*result, error)
}

var workloads = []workload{
	{"oracle-table3", runOracleTable3},
	{"inference-smallcnn", runInferenceSmallCNN},
	{"inference-resnet20", runInferenceResNet20},
	{"service-federated", runServiceFederated},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaignbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "sampling seed of the workload's campaigns")
	seconds := fs.Float64("seconds", 10, "how long the timed passes run")
	trace := fs.Int("trace", 0, "1 = instrumented run reporting the per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "scratch directory for state and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(stderr, "usage: campaignbench --workload <%v> --seed <n> --seconds <s> --trace <0|1>\n", names)
		return 2
	}

	host := readHostFacts()
	facts, _ := json.Marshal(host) // plain struct of strings and ints
	fmt.Fprintf(stdout, "host %s\n", facts)
	cfg := runConfig{
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		workers: host.NProc,
		workdir: *workdir,
		out:     stdout,
		run:     fmt.Sprintf("%s-seed%d-trace%d-%d", w.name, *seed, *trace, time.Now().UnixNano()),
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "campaignbench: %v\n", err)
		return 1
	}
	if abs, err := filepath.Abs(cfg.workdir); err == nil {
		cfg.workdir = abs
	}
	res, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "campaignbench: %s: %v\n", w.name, err)
		return 1
	}
	return report(stdout, stderr, cfg, res)
}

// report prints the operation tally and the final JSON line, and returns
// the exit code: nonzero when any output was wrong.
func report(stdout, stderr io.Writer, cfg runConfig, res *result) int {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok && !cfg.trace {
			res.problems = append(res.problems, "end-to-end metric "+d.name+" was not measured")
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.problems = append(res.problems, fmt.Sprintf("metric %s is %v", d.name, v))
			v = 0
		}
		metrics[d.name] = value{v, d.unit}
	}
	for name := range res.metrics {
		found := false
		for _, d := range defs {
			found = found || d.name == name
		}
		if !found {
			res.problems = append(res.problems, "metric "+name+" is not declared")
		}
	}
	sort.Strings(res.problems)
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "campaignbench: check failed: %s\n", p)
	}
	failed := res.ops.bad()
	if failed == 0 && len(res.problems) > 0 {
		failed = 1 // a run-level check failed: count it against the run
	}
	correct := failed == 0 && res.ops.attempted > 0
	fmt.Fprintf(stdout, "operations: %s\n", res.ops)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, max(res.ops.attempted, 1), failed, metrics})
	if err != nil {
		fmt.Fprintf(stderr, "campaignbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !correct {
		return 1
	}
	return 0
}
