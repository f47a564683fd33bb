package main

// The three campaign workloads share one runner. An untraced run sets up
// several times (the median is setup_s), runs timed passes of the
// workload's fixed campaign set until the run window is spent, and then,
// outside every timed window, builds a reference by a different path and
// compares every Result byte for byte. A traced run alternates untraced
// and traced passes and adds the per-layer measurements.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"cnnsfi/internal/faultmodel"
	"cnnsfi/sfi"
)

// Fixed, recorded inputs: only the sampling seed varies between runs.
const (
	modelSeed   = 1 // weight generator seed of every model
	oracleSeed  = 3 // the oracle's ground-truth labelling seed
	datasetSeed = 1 // synthetic evaluation-set seed
)

// campaignSetup is everything a workload's set-up produces.
type campaignSetup struct {
	ev     sfi.Evaluator // the evaluator the timed passes run
	inj    *sfi.Injector // inference workloads; nil on the oracle
	oracle *sfi.Oracle   // oracle workload; nil otherwise
	net    *sfi.Network
	ds     *sfi.Dataset
	batch  int // evaluation batch size; 1 is the per-image path
	names  []string
	plans  []*sfi.Plan
	opts   []sfi.EngineOption
	truth  []float64          // exhaustive per-layer rates (oracle)
	phases map[string]float64 // per-layer set-up costs, by metric name
}

func (st *campaignSetup) planned() int64 {
	var n int64
	for _, p := range st.plans {
		n += p.TotalInjections()
	}
	return n
}

type campaignWorkload struct {
	name      string
	setupReps int
	minPasses int
	// warmPasses run untimed before the timed window, so the first
	// timed pass finds the runtime's heap and caches in steady state.
	warmPasses int
	build      func() (*campaignSetup, error)
	// reference replays the workload's campaigns on a different path and
	// returns one digest per campaign plus the replay's pass times.
	reference func(st *campaignSetup, cfg runConfig) (*referenceRun, error)
	// captureVerdicts makes the traced run record every verdict, for
	// workloads without an exhaustive verdict table.
	captureVerdicts bool
}

type referenceRun struct {
	sums    [][32]byte
	walls   []float64
	engines []pass // the timed lookup passes, when a verdict table exists
	// drift counts timed lookup passes whose Results differ from the
	// one-worker replay that made sums: the engine broke its promise of
	// the same bytes at any worker count.
	drift int
}

// pass is one run of the workload's campaign set.
type pass struct {
	wall      float64   // s, the whole set
	execWalls []float64 // s, per campaign
	allocMB   float64
	sums      [][32]byte
	errs      []error
	results   []*sfi.Result
	calls     int64 // lookup passes: verdicts answered
}

// campaignTrace receives a traced pass's spans and per-campaign records.
type campaignTrace struct {
	log    *spanLog
	parent int
	ev     *timedEvaluator
	data   []collected
}

// runPass executes every plan once against ev. Only Execute itself is
// inside the timed window; digests are taken after it.
func (st *campaignSetup) runPass(ev sfi.Evaluator, cfg runConfig, tr *campaignTrace) pass {
	runtime.GC()
	ctx := context.Background()
	p := pass{sums: make([][32]byte, len(st.plans)), errs: make([]error, len(st.plans)), results: make([]*sfi.Result, len(st.plans))}
	opts := append([]sfi.EngineOption{sfi.WithWorkers(cfg.workers)}, st.opts...)
	a0 := totalAllocMB()
	t0 := time.Now()
	for i, plan := range st.plans {
		id := -1
		if tr != nil {
			id = tr.log.begin("campaign:"+st.names[i], tr.parent)
		}
		c0 := time.Now()
		p.results[i], p.errs[i] = sfi.NewEngine(opts...).Execute(ctx, ev, plan, cfg.seed)
		p.execWalls = append(p.execWalls, time.Since(c0).Seconds())
		if tr != nil {
			tr.log.end(id)
			d := tr.ev.collect()
			tr.log.addExperiments(id, d.spans)
			d.spans = nil
			tr.data = append(tr.data, d)
		}
	}
	p.wall = time.Since(t0).Seconds()
	p.allocMB = totalAllocMB() - a0
	for i, res := range p.results {
		if p.errs[i] == nil {
			p.sums[i], p.errs[i] = digest(res)
		}
	}
	return p
}

// digest hashes a Result's serialized bytes (its WriteJSON document).
func digest(res *sfi.Result) ([32]byte, error) {
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return [32]byte{}, fmt.Errorf("serializing result: %w", err)
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// lookupPass runs the campaign set against the lookup evaluator.
func (st *campaignSetup) lookupPass(t *verdictTable, cfg runConfig) pass {
	ev := newLookupEvaluator(t)
	p := st.runPass(ev, cfg, nil)
	p.calls = ev.totalCalls()
	p.results = nil // only the digests are compared
	return p
}

// lookupBudget is how long the timed lookup passes repeat for (at least
// lookupMinPasses of them); their median is the twin time.
const (
	lookupBudget    = time.Second
	lookupMinPasses = 3
)

// lookupReference replays the campaign set on the lookup evaluator: once
// at one worker, whose digests are the reference, then timed at the
// run's worker count until the lookup budget is spent.
func (st *campaignSetup) lookupReference(t *verdictTable, cfg runConfig) (*referenceRun, error) {
	serial := cfg
	serial.workers = 1
	first := st.lookupPass(t, serial)
	if err := errors.Join(first.errs...); err != nil {
		return nil, fmt.Errorf("lookup reference: %w", err)
	}
	ref := &referenceRun{sums: first.sums}
	start := time.Now()
	for len(ref.engines) < lookupMinPasses || time.Since(start) < lookupBudget {
		p := st.lookupPass(t, cfg)
		if err := errors.Join(p.errs...); err != nil {
			return nil, fmt.Errorf("lookup reference: %w", err)
		}
		if !slices.Equal(p.sums, ref.sums) {
			ref.drift++
		}
		ref.walls = append(ref.walls, p.wall)
		ref.engines = append(ref.engines, p)
	}
	return ref, nil
}

func (ref *referenceRun) problems() []string {
	if ref.drift == 0 {
		return nil
	}
	return []string{fmt.Sprintf("%d of %d lookup replays at several workers differ from the one-worker replay", ref.drift, len(ref.engines))}
}

// judge classifies every campaign of the passes against the reference
// digests.
func judge(ops *tally, passes []pass, ref [][32]byte) {
	for _, p := range passes {
		for i := range p.sums {
			switch {
			case p.errs[i] != nil:
				ops.record(opFailed)
			case p.sums[i] != ref[i]:
				ops.record(opMismatched)
			default:
				ops.record(opOK)
			}
		}
	}
}

func walls(ps []pass) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.wall
	}
	return out
}

func runCampaign(cfg runConfig, w campaignWorkload) (*result, error) {
	reps := w.setupReps
	if cfg.trace {
		reps = 1
	}
	var setups []float64
	var st *campaignSetup
	for i := 0; i < reps; i++ {
		runtime.GC()
		t := time.Now()
		s, err := w.build()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		st = s
	}
	fmt.Fprintf(cfg.out, "workload %s: %d campaign(s), %d injections per pass, %d workers\n",
		w.name, len(st.plans), st.planned(), cfg.workers)
	for i, p := range st.plans {
		fmt.Fprintf(cfg.out, "  %-13s n = %d (%d strata)\n", st.names[i], p.TotalInjections(), len(p.Subpops))
	}
	if cfg.trace {
		return traceCampaign(cfg, w, st)
	}

	for i := 0; i < w.warmPasses; i++ {
		st.runPass(st.ev, cfg, nil)
	}
	var passes []pass
	start := time.Now()
	for len(passes) < w.minPasses || time.Since(start) < cfg.window {
		p := st.runPass(st.ev, cfg, nil)
		if len(passes) > 0 {
			p.results = nil // the first pass's Results feed the report
		}
		passes = append(passes, p)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	ref, err := w.reference(st, cfg)
	if err != nil {
		return nil, err
	}
	res := &result{metrics: map[string]float64{}, problems: ref.problems()}
	judge(&res.ops, passes, ref.sums)
	if st.truth != nil && res.ops.bad() == 0 {
		writeTable3(cfg, st, passes[0].results)
	}

	ws := walls(passes)
	allocs := make([]float64, len(passes))
	for i, p := range passes {
		allocs[i] = p.allocMB
	}
	campaign := median(ws)
	fmt.Fprintf(cfg.out, "setup_s: %s\n", summarize(setups))
	fmt.Fprintf(cfg.out, "campaign_s (one pass = the campaign set): %s, p90 %.6g\n  passes: %.4f\n", summarize(ws), percentile(ws, 90), ws)
	fmt.Fprintf(cfg.out, "twin (reference path): %s\n", summarize(ref.walls))
	res.metrics["campaign_s"] = campaign
	res.metrics["injections_per_s"] = float64(st.planned()) / campaign
	res.metrics["setup_s"] = median(setups)
	res.metrics["alloc_mb"] = median(allocs)
	res.metrics["max_rss_mb"] = rss
	res.metrics["job_p50_s"] = campaign
	res.metrics["twin_job_p50_s"] = median(ref.walls)
	res.metrics["jobs_per_s"] = 1 / campaign
	return res, nil
}

// traceCampaign is the instrumented run: untraced and traced passes
// alternate (so drift hits both alike), then the nn micro-passes and the
// engine-only lookup passes run, and every Result is checked.
func traceCampaign(cfg runConfig, w campaignWorkload, st *campaignSetup) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	t0 := time.Now()
	log := newSpanLog(cfg.run, t0)
	root := log.begin("workload:"+w.name, -1)
	// The oracle's ~100 ns verdicts would cost less than their spans:
	// there the wrapper aggregates per (campaign, layer) only.
	tev := newTimedEvaluator(st.ev, t0, st.inj != nil, w.captureVerdicts)
	tr := &campaignTrace{log: log, parent: root, ev: tev}
	before := evalStats(st.ev)

	var plain, traced []pass
	start := time.Now()
	for len(traced) < 2 || time.Since(start) < cfg.window {
		plain = append(plain, st.runPass(st.ev, cfg, nil))
		traced = append(traced, st.runPass(tev, cfg, tr))
	}
	stats := evalStats(st.ev).Sub(before)

	// The reference: the exhaustive lookup table where one exists, else
	// a table of the verdicts the last traced pass observed, whose
	// one-worker replay must reproduce the untraced bytes.
	var ref *referenceRun
	var err error
	if w.captureVerdicts {
		table, terr := newVerdictTable(st.ev.Space())
		if terr != nil {
			return nil, terr
		}
		for _, d := range tr.data[len(tr.data)-len(st.plans):] {
			for _, fv := range d.verdicts {
				table.set(fv.f, fv.v)
			}
		}
		ref, err = st.lookupReference(table, cfg)
	} else {
		ref, err = w.reference(st, cfg)
	}
	if err != nil {
		return nil, err
	}
	judge(&res.ops, plain, ref.sums)
	judge(&res.ops, traced, ref.sums)
	res.problems = append(res.problems, ref.problems()...)
	mismatch := res.ops.mismatched
	log.end(root)

	m := res.metrics
	for k, v := range st.phases {
		m[k] = v
	}
	var layers []layerCost
	var busy, execs []float64
	for i, p := range traced {
		var b int64
		for _, d := range tr.data[i*len(st.plans) : (i+1)*len(st.plans)] {
			b += d.busyNs
			if layers == nil {
				layers = make([]layerCost, len(d.layers))
			}
			for l := range d.layers {
				layers[l].add(d.layers[l])
			}
		}
		busy = append(busy, float64(b)/1e9)
		var e float64
		for _, x := range p.execWalls {
			e += x
		}
		execs = append(execs, e)
	}
	var all layerCost
	for _, c := range layers {
		all.add(c)
	}
	if st.inj != nil {
		costs := measureNN(st)
		m["nn.forward_us"] = costs.forwardUs
		m["nn.forward_gflops"] = costs.gflops
		for k, us := range costs.suffixUs {
			m[fmt.Sprintf("nn.suffix_us.L%d", k)] = us
		}
		if n := all.calls - all.masked; n > 0 {
			m["inject.experiment_us"] = float64(all.unmaskedNs) / float64(n) / 1e3
		}
		for k, c := range layers {
			if n := c.calls - c.masked; n > 0 {
				m[fmt.Sprintf("inject.experiment_us.L%d", k)] = float64(c.unmaskedNs) / float64(n) / 1e3
			}
		}
		writeCostTable(cfg, st, costs, layers)
	}
	if st.oracle != nil && all.calls > 0 {
		m["oracle.verdict_ns"] = float64(all.allNs) / float64(all.calls)
	}
	if n := stats.Skipped + stats.Evaluated; n > 0 {
		m["inject.masked_frac"] = float64(stats.Skipped) / float64(n)
	}
	if stats.Evaluated > 0 {
		m["inject.early_exit_frac"] = float64(stats.EarlyExits) / float64(stats.Evaluated)
	}
	m["inject.arena_kb"] = float64(stats.ArenaBytes) / 1024
	m["core.execute_s"] = median(execs)
	m["core.eval_busy_s"] = median(busy)
	if e := median(execs); e > 0 {
		m["core.worker_idle_frac"] = 1 - median(busy)/(float64(cfg.workers)*e)
	}
	var engineAlloc []float64
	for _, p := range ref.engines {
		engineAlloc = append(engineAlloc, p.allocMB)
	}
	m["core.engine_only_s"] = median(walls(ref.engines))
	m["core.engine_only_alloc_mb"] = median(engineAlloc)
	m["core.calls"] = float64(ref.engines[0].calls)
	if ref.engines[0].calls != st.planned() {
		res.problems = append(res.problems, fmt.Sprintf("lookup evaluator answered %d verdicts for %d planned injections",
			ref.engines[0].calls, st.planned()))
	}
	m["trace.overhead_frac"] = median(walls(traced))/median(walls(plain)) - 1
	m["result_mismatch"] = float64(mismatch)

	fmt.Fprintf(cfg.out, "untraced pass: %s\ntraced pass:   %s\n", summarize(walls(plain)), summarize(walls(traced)))
	writeSelfTimes(cfg.out, log.selfTimes())
	path := fmt.Sprintf("%s/spans/%s-seed%d.jsonl.gz", cfg.workdir, w.name, cfg.seed)
	if err := log.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(cfg.out, "spans: %d written to %s\n", len(log.spans), path)
	return res, nil
}

func evalStats(ev sfi.Evaluator) sfi.EvalStats {
	if r, ok := ev.(sfi.StatsReporter); ok {
		return r.EvalStats()
	}
	return sfi.EvalStats{}
}

// table3Plans builds Table III's four plans at error margin e.
func table3Plans(space sfi.FaultSpace, net *sfi.Network, e float64) ([]string, []*sfi.Plan) {
	cfg := sfi.DefaultConfig()
	cfg.ErrorMargin = e
	analysis := sfi.AnalyzeWeights(net.AllWeights())
	return []string{"network-wise", "layer-wise", "data-unaware", "data-aware"}, []*sfi.Plan{
		sfi.PlanNetworkWise(space, cfg),
		sfi.PlanLayerWise(space, cfg),
		sfi.PlanDataUnaware(space, cfg),
		sfi.PlanDataAware(space, cfg, analysis.P),
	}
}

// warmUp runs one unmasked experiment so the injector's lazy batched
// golden state and its scratch arena are built before any timed pass.
func warmUp(inj *sfi.Injector) {
	f := sfi.Fault{Layer: 0, Param: 0, Bit: 0, Model: faultmodel.StuckAt0}
	if inj.Masked(f) {
		f.Model = faultmodel.StuckAt1
	}
	inj.IsCritical(f)
}

func runOracleTable3(cfg runConfig) (*result, error) {
	return runCampaign(cfg, campaignWorkload{
		name:       "oracle-table3",
		setupReps:  3,
		minPasses:  5,
		warmPasses: 1,
		build: func() (*campaignSetup, error) {
			net, err := sfi.BuildModel("resnet20", modelSeed)
			if err != nil {
				return nil, err
			}
			o := sfi.NewOracle(net, sfi.OracleDefaults(oracleSeed))
			st := &campaignSetup{ev: o, oracle: o, net: net, batch: 1, phases: map[string]float64{}}
			t := time.Now()
			st.truth = make([]float64, o.Space().NumLayers())
			for l := range st.truth {
				st.truth[l] = o.ExhaustiveLayerRate(l)
			}
			st.phases["oracle.exhaustive_s"] = time.Since(t).Seconds()
			t = time.Now()
			st.names, st.plans = table3Plans(o.Space(), net, 0.01)
			st.phases["plan.build_ms"] = float64(time.Since(t).Nanoseconds()) / 1e6
			return st, nil
		},
		reference: func(st *campaignSetup, cfg runConfig) (*referenceRun, error) {
			t, err := newVerdictTable(st.ev.Space())
			if err != nil {
				return nil, err
			}
			// The full perturbation model for every fault: no masked-fault
			// short-circuit, no counters, no engine.
			t.fillExhaustive(func(int) func(sfi.Fault) bool { return st.oracle.IsCriticalReference })
			return st.lookupReference(t, cfg)
		},
	})
}

func runInferenceSmallCNN(cfg runConfig) (*result, error) {
	build := func() (*campaignSetup, error) {
		net, err := sfi.BuildModel("smallcnn", modelSeed)
		if err != nil {
			return nil, err
		}
		ds := sfi.SyntheticDataset(sfi.DatasetConfig{N: 8, Seed: datasetSeed, Size: 16})
		st := &campaignSetup{net: net, ds: ds, batch: 8, phases: map[string]float64{}}
		t := time.Now()
		st.inj = sfi.NewInjector(net, ds)
		st.inj.SetBatchSize(st.batch)
		warmUp(st.inj)
		st.phases["inject.setup_s"] = time.Since(t).Seconds()
		st.ev = st.inj
		t = time.Now()
		st.names, st.plans = table3Plans(st.inj.Space(), net, 0.01)
		st.phases["plan.build_ms"] = float64(time.Since(t).Nanoseconds()) / 1e6
		// sfirun -batch 8 groups each shard's draws by fault identity.
		st.opts = []sfi.EngineOption{sfi.WithGroupedEvaluation(true)}
		return st, nil
	}
	return runCampaign(cfg, campaignWorkload{
		name:       "inference-smallcnn",
		setupReps:  15,
		minPasses:  3,
		warmPasses: 1,
		build:      build,
		reference: func(st *campaignSetup, cfg runConfig) (*referenceRun, error) {
			t, err := newVerdictTable(st.ev.Space())
			if err != nil {
				return nil, err
			}
			// A fresh model and injector on the per-image path (batch 1),
			// one clone per goroutine, enumerating every fault in order.
			net, err := sfi.BuildModel("smallcnn", modelSeed)
			if err != nil {
				return nil, err
			}
			inj := sfi.NewInjector(net, st.ds)
			t.fillExhaustive(func(g int) func(sfi.Fault) bool {
				if g == 0 {
					return inj.IsCritical
				}
				return inj.Clone().IsCritical
			})
			return st.lookupReference(t, cfg)
		},
	})
}

func runInferenceResNet20(cfg runConfig) (*result, error) {
	return runCampaign(cfg, campaignWorkload{
		name:            "inference-resnet20",
		setupReps:       5,
		minPasses:       3,
		captureVerdicts: true,
		build: func() (*campaignSetup, error) {
			net, err := sfi.BuildModel("resnet20", modelSeed)
			if err != nil {
				return nil, err
			}
			ds := sfi.SyntheticDataset(sfi.DatasetConfig{N: 4, Seed: datasetSeed, Size: 32})
			st := &campaignSetup{net: net, ds: ds, batch: 1, phases: map[string]float64{}}
			t := time.Now()
			st.inj = sfi.NewInjector(net, ds)
			warmUp(st.inj)
			st.phases["inject.setup_s"] = time.Since(t).Seconds()
			st.ev = st.inj
			t = time.Now()
			c := sfi.DefaultConfig()
			c.ErrorMargin = 0.2
			st.names, st.plans = []string{"layer-wise"}, []*sfi.Plan{sfi.PlanLayerWise(st.inj.Space(), c)}
			st.phases["plan.build_ms"] = float64(time.Since(t).Nanoseconds()) / 1e6
			return st, nil
		},
		reference: func(st *campaignSetup, cfg runConfig) (*referenceRun, error) {
			// No exhaustive table is feasible here: replay the plan on the
			// batched channel-partial path (batch 4) at one worker.
			ref := st.inj.Clone()
			ref.SetBatchSize(4)
			one := cfg
			one.workers = 1
			p := st.runPass(ref, one, nil)
			for _, err := range p.errs {
				if err != nil {
					return nil, fmt.Errorf("batched reference: %w", err)
				}
			}
			return &referenceRun{sums: p.sums, walls: []float64{p.wall}}, nil
		},
	})
}

// writeTable3 prints Table III for the first pass's Results.
func writeTable3(cfg runConfig, st *campaignSetup, results []*sfi.Result) {
	fmt.Fprintf(cfg.out, "Table III (first pass vs exhaustive)\n  %-13s %9s %10s %14s %8s\n",
		"approach", "n", "injected%", "avg_margin%", "covered")
	for i, res := range results {
		c := sfi.Compare(res, st.truth)
		fmt.Fprintf(cfg.out, "  %-13s %9d %10.4f %14.3f %5d/%d\n", st.names[i], c.Injections,
			c.InjectedFraction*100, c.AvgMargin*100, c.CoveredLayers, len(st.truth))
	}
}
