// Package cnnsfi_test is the benchmark harness that regenerates every
// table and figure of the paper's evaluation (see DESIGN.md §4 for the
// experiment index and EXPERIMENTS.md for paper-vs-measured values):
//
//	BenchmarkTableI_ResNet20Plan          Table I   (sample-size plans)
//	BenchmarkTableII_MobileNetV2Plan      Table II
//	BenchmarkTableIII_ResNet20Oracle      Table III (ResNet-20 row block)
//	BenchmarkTableIII_MobileNetV2Oracle   Table III (MobileNetV2 block)
//	BenchmarkFig1_VarianceCurve           Fig. 1 (left)
//	BenchmarkFig2_BitFlipDistance         Fig. 2
//	BenchmarkFig3_BitFrequencies          Fig. 3
//	BenchmarkFig4_DataAwareP              Fig. 4
//	BenchmarkFig5_PerLayerComparison      Fig. 5
//	BenchmarkFig6_ReplicatedSamples       Fig. 6
//	BenchmarkFig7_MobileNetV2PerLayer     Fig. 7
//	BenchmarkSmallCNN_Exhaustive*         the inference-based validation
//	BenchmarkAblation_*                   design-choice ablations
//	BenchmarkParallel_*                   serial vs shard-parallel runner
//	                                      (both evaluator families)
//	BenchmarkEngine_Overhead              engine vs legacy wrapper cost
//	BenchmarkEngine_Telemetry{Off,On}     the cost of full tracing vs
//	                                      the disabled-seam baseline
//
// Key quantities are attached as custom benchmark metrics
// (injections/op, avg_margin_pct, …), so `go test -bench=.` both
// regenerates and documents the numbers.
package cnnsfi_test

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"cnnsfi/internal/dataaware"
	"cnnsfi/internal/faultmodel"
	"cnnsfi/internal/fp"
	"cnnsfi/internal/inject"
	"cnnsfi/internal/quantize"
	"cnnsfi/internal/stats"
	"cnnsfi/internal/telemetry"
	"cnnsfi/sfi"
)

// Lazily shared fixtures so the heavyweight exhaustive enumerations run
// once per `go test` process, not once per benchmark.
var (
	resnetOnce  sync.Once
	resnetNet   *sfi.Network
	resnetO     *sfi.Oracle
	resnetTruth []float64

	mbv2Once  sync.Once
	mbv2Net   *sfi.Network
	mbv2O     *sfi.Oracle
	mbv2Truth []float64

	smallOnce sync.Once
	smallInj  *sfi.Injector
	smallNet  *sfi.Network
)

func resnetFixture(b *testing.B) (*sfi.Network, *sfi.Oracle, []float64) {
	b.Helper()
	resnetOnce.Do(func() {
		net, err := sfi.BuildModel("resnet20", 1)
		if err != nil {
			panic(err)
		}
		resnetNet = net
		resnetO = sfi.NewOracle(net, sfi.OracleDefaults(3))
		resnetTruth = make([]float64, resnetO.Space().NumLayers())
		for l := range resnetTruth {
			resnetTruth[l] = resnetO.ExhaustiveLayerRate(l)
		}
	})
	return resnetNet, resnetO, resnetTruth
}

func mbv2Fixture(b *testing.B) (*sfi.Network, *sfi.Oracle, []float64) {
	b.Helper()
	mbv2Once.Do(func() {
		net, err := sfi.BuildModel("mobilenetv2", 1)
		if err != nil {
			panic(err)
		}
		mbv2Net = net
		mbv2O = sfi.NewOracle(net, sfi.OracleDefaults(3))
		mbv2Truth = make([]float64, mbv2O.Space().NumLayers())
		for l := range mbv2Truth {
			mbv2Truth[l] = mbv2O.ExhaustiveLayerRate(l)
		}
	})
	return mbv2Net, mbv2O, mbv2Truth
}

func smallFixture(b *testing.B) (*sfi.Network, *sfi.Injector) {
	b.Helper()
	smallOnce.Do(func() {
		smallNet = sfi.TrainableSmallCNN(1)
		data := sfi.SyntheticDataset(sfi.DatasetConfig{N: 260, Seed: 5, Size: 16, Noise: 0.1})
		trainSet, _ := data.Split(200)
		tr, err := sfi.NewTrainer(smallNet, 0.002, 0.9)
		if err != nil {
			panic(err)
		}
		tr.Fit(trainSet, 10)
		evalSet := sfi.SyntheticDataset(sfi.DatasetConfig{N: 8, Seed: 9, Size: 16, Noise: 0.1})
		smallInj = sfi.NewInjector(smallNet, evalSet)
	})
	return smallNet, smallInj
}

// BenchmarkTableI_ResNet20Plan regenerates the sample-size columns of
// Table I (the layer-wise and data-unaware columns match the paper
// digit-for-digit; see EXPERIMENTS.md).
func BenchmarkTableI_ResNet20Plan(b *testing.B) {
	net, _, _ := resnetFixture(b)
	space := sfi.StuckAtSpace(net)
	cfg := sfi.DefaultConfig()
	analysis := sfi.AnalyzeWeights(net.AllWeights())
	b.ResetTimer()

	var total int64
	for i := 0; i < b.N; i++ {
		network := sfi.PlanNetworkWise(space, cfg)
		layer := sfi.PlanLayerWise(space, cfg)
		unaware := sfi.PlanDataUnaware(space, cfg)
		aware := sfi.PlanDataAware(space, cfg, analysis.P)
		total = network.TotalInjections() + layer.TotalInjections() +
			unaware.TotalInjections() + aware.TotalInjections()

		// Guard the paper-exact cells.
		if network.TotalInjections() != 16625 {
			b.Fatalf("network-wise n = %d, want 16,625", network.TotalInjections())
		}
		if layer.LayerInjections(0) != 10389 || unaware.LayerInjections(0) != 26272 {
			b.Fatal("Table I row 0 mismatch")
		}
	}
	b.ReportMetric(float64(total), "planned_injections")
}

// BenchmarkTableII_MobileNetV2Plan regenerates Table II.
func BenchmarkTableII_MobileNetV2Plan(b *testing.B) {
	net, _, _ := mbv2Fixture(b)
	space := sfi.StuckAtSpace(net)
	cfg := sfi.DefaultConfig()
	analysis := sfi.AnalyzeWeights(net.AllWeights())
	b.ResetTimer()

	for i := 0; i < b.N; i++ {
		network := sfi.PlanNetworkWise(space, cfg)
		if network.TotalInjections() != 16639 {
			b.Fatalf("network-wise n = %d, want 16,639", network.TotalInjections())
		}
		layer := sfi.PlanLayerWise(space, cfg)
		aware := sfi.PlanDataAware(space, cfg, analysis.P)
		b.ReportMetric(float64(layer.TotalInjections()), "layerwise_n")
		b.ReportMetric(float64(aware.TotalInjections()), "dataaware_n")
	}
	if space.Total() != 141029376 {
		b.Fatalf("population = %d, want 141,029,376", space.Total())
	}
}

// tableIII executes all four campaigns against exhaustive truth and
// reports the Table III row metrics for the named approach.
func tableIII(b *testing.B, net *sfi.Network, ev sfi.Evaluator, truth []float64) {
	space := ev.Space()
	cfg := sfi.DefaultConfig()
	analysis := sfi.AnalyzeWeights(net.AllWeights())
	plans := []*sfi.Plan{
		sfi.PlanNetworkWise(space, cfg),
		sfi.PlanLayerWise(space, cfg),
		sfi.PlanDataUnaware(space, cfg),
		sfi.PlanDataAware(space, cfg, analysis.P),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, plan := range plans {
			cmp := sfi.Compare(sfi.Run(ev, plan, int64(i)), truth)
			b.ReportMetric(cmp.AvgMargin*100, plan.Approach.String()+"_avg_margin_pct")
		}
	}
}

// BenchmarkTableIII_ResNet20Oracle regenerates the ResNet-20 block of
// Table III on the full 17.2M-fault population.
func BenchmarkTableIII_ResNet20Oracle(b *testing.B) {
	net, o, truth := resnetFixture(b)
	tableIII(b, net, o, truth)
}

// BenchmarkTableIII_MobileNetV2Oracle regenerates the MobileNetV2 block
// of Table III on the full 141M-fault population.
func BenchmarkTableIII_MobileNetV2Oracle(b *testing.B) {
	net, o, truth := mbv2Fixture(b)
	tableIII(b, net, o, truth)
}

// BenchmarkFig1_VarianceCurve regenerates the Bernoulli variance curve.
func BenchmarkFig1_VarianceCurve(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		for p := 0.0; p <= 1.0; p += 0.01 {
			acc += stats.BernoulliVariance(p)
		}
	}
	_ = acc
}

// BenchmarkFig2_BitFlipDistance regenerates the per-bit distance example.
func BenchmarkFig2_BitFlipDistance(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		for bit := 0; bit < 32; bit++ {
			acc += fp.FlipDistance32(0.0417, bit)
		}
	}
	_ = acc
}

// BenchmarkFig3_BitFrequencies regenerates the f0/f1 scan over the
// ResNet-20 weights.
func BenchmarkFig3_BitFrequencies(b *testing.B) {
	net, _, _ := resnetFixture(b)
	weights := net.AllWeights()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := dataaware.AnalyzeFP32(weights)
		if a.F1[30] > 0.001 {
			b.Fatal("exponent MSB should be almost never 1")
		}
	}
}

// BenchmarkFig4_DataAwareP regenerates p(i) for both CNNs.
func BenchmarkFig4_DataAwareP(b *testing.B) {
	rNet, _, _ := resnetFixture(b)
	mNet, _, _ := mbv2Fixture(b)
	rw, mw := rNet.AllWeights(), mNet.AllWeights()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ra := dataaware.AnalyzeFP32(rw)
		ma := dataaware.AnalyzeFP32(mw)
		if ra.MostCriticalBit() != 30 || ma.MostCriticalBit() != 30 {
			b.Fatal("exponent MSB must be most critical on both CNNs")
		}
	}
}

// BenchmarkFig5_PerLayerComparison regenerates the all-layer ResNet-20
// comparison (layer-wise and data-aware vs exhaustive).
func BenchmarkFig5_PerLayerComparison(b *testing.B) {
	net, o, truth := resnetFixture(b)
	space := o.Space()
	cfg := sfi.DefaultConfig()
	analysis := sfi.AnalyzeWeights(net.AllWeights())
	lw := sfi.PlanLayerWise(space, cfg)
	da := sfi.PlanDataAware(space, cfg, analysis.P)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := sfi.Compare(sfi.Run(o, lw, int64(i)), truth)
		c := sfi.Compare(sfi.Run(o, da, int64(i)), truth)
		b.ReportMetric(float64(a.CoveredLayers), "layerwise_covered")
		b.ReportMetric(float64(c.CoveredLayers), "dataaware_covered")
	}
}

// BenchmarkFig6_ReplicatedSamples regenerates the S0-S9 replication for
// ResNet-20 layer 0 under all four approaches.
func BenchmarkFig6_ReplicatedSamples(b *testing.B) {
	net, o, truth := resnetFixture(b)
	space := o.Space()
	cfg := sfi.DefaultConfig()
	analysis := sfi.AnalyzeWeights(net.AllWeights())
	plans := []*sfi.Plan{
		sfi.PlanNetworkWise(space, cfg),
		sfi.PlanLayerWise(space, cfg),
		sfi.PlanDataUnaware(space, cfg),
		sfi.PlanDataAware(space, cfg, analysis.P),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, plan := range plans {
			reps := sfi.ReplicatedEstimates(o, plan, 0, 10)
			covered := 0
			for _, est := range reps {
				if est.Covers(cfg, truth[0]) {
					covered++
				}
			}
			b.ReportMetric(float64(covered), plan.Approach.String()+"_covered_of_10")
		}
	}
}

// BenchmarkFig7_MobileNetV2PerLayer regenerates the MobileNetV2
// network-wise vs data-aware per-layer comparison.
func BenchmarkFig7_MobileNetV2PerLayer(b *testing.B) {
	net, o, truth := mbv2Fixture(b)
	space := o.Space()
	cfg := sfi.DefaultConfig()
	analysis := sfi.AnalyzeWeights(net.AllWeights())
	nw := sfi.PlanNetworkWise(space, cfg)
	da := sfi.PlanDataAware(space, cfg, analysis.P)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := sfi.Compare(sfi.Run(o, nw, int64(i)), truth)
		c := sfi.Compare(sfi.Run(o, da, int64(i)), truth)
		b.ReportMetric(a.AvgMargin*100, "networkwise_avg_margin_pct")
		b.ReportMetric(c.AvgMargin*100, "dataaware_avg_margin_pct")
	}
}

// BenchmarkSmallCNN_ExhaustiveLayer0 measures the inference-based
// exhaustive campaign over SmallCNN's first layer (6,912 real
// fault-injection experiments with prefix-cached re-inference).
func BenchmarkSmallCNN_ExhaustiveLayer0(b *testing.B) {
	_, inj := smallFixture(b)
	space := inj.Space()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var critical int64
		n := space.LayerTotal(0)
		for j := int64(0); j < n; j++ {
			if inj.IsCritical(space.LayerFault(0, j)) {
				critical++
			}
		}
		b.ReportMetric(float64(critical)/float64(n)*100, "critical_pct")
	}
}

// BenchmarkIsCritical_Masked prices one masked-fault experiment on the
// real-inference injector: a stuck-at whose target bit already holds
// the stuck value, which the short-circuit classifies without running
// any inference. Pair with BenchmarkIsCritical_Unmasked for the
// speedup, and with allocs/op = 0 as the allocation-free evidence.
func BenchmarkIsCritical_Masked(b *testing.B) {
	net, inj := smallFixture(b)
	w := net.WeightLayers()[0].WeightData()[0]
	// Bit 0 of the first weight is either 0 or 1; pick the stuck-at
	// variant that matches so the fault is masked by construction.
	f := faultmodel.Fault{Layer: 0, Param: 0, Bit: 0, Model: faultmodel.StuckAt0}
	if fp.Bit32(w, 0) {
		f.Model = faultmodel.StuckAt1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if inj.IsCritical(f) {
			b.Fatal("masked fault classified critical")
		}
	}
}

// BenchmarkIsCritical_Unmasked prices one full fault-injection
// experiment through the arena-backed hot path: the complementary
// (unmasked, benign) stuck-at on the same mantissa LSB, re-running the
// whole-network suffix over every evaluation image. allocs/op is the
// steady-state allocation count of a real experiment.
func BenchmarkIsCritical_Unmasked(b *testing.B) {
	net, inj := smallFixture(b)
	w := net.WeightLayers()[0].WeightData()[0]
	f := faultmodel.Fault{Layer: 0, Param: 0, Bit: 0, Model: faultmodel.StuckAt1}
	if fp.Bit32(w, 0) {
		f.Model = faultmodel.StuckAt0
	}
	inj.IsCritical(f) // warm the arena so b.N=1 runs are steady-state too
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inj.IsCritical(f)
	}
}

// BenchmarkOracle_IsCritical prices oracle verdicts over a fixed stream
// of 65,536 ResNet-20 faults spread across the whole population (about
// half masked, like a real campaign); one op is one pass over the
// stream, so even -benchtime 3x times ~200k verdicts, and ns/verdict
// reports the per-verdict price. "serial" is one goroutine on the root
// oracle; "parallel" runs GOMAXPROCS goroutines under b.RunParallel,
// each on its own CloneForWorker view as the campaign engine's workers
// are, so ns/verdict falls with cores only if the views never contend
// on a shared counter.
func BenchmarkOracle_IsCritical(b *testing.B) {
	_, o, _ := resnetFixture(b)
	space := o.Space()
	faults := make([]faultmodel.Fault, 1<<16)
	stride := space.Total() / int64(len(faults))
	for i := range faults {
		faults[i] = space.GlobalFault(int64(i) * stride)
	}
	pass := func(ev sfi.Evaluator) {
		for _, f := range faults {
			ev.IsCritical(f)
		}
	}
	perVerdict := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(faults)), "ns/verdict")
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pass(o)
		}
		perVerdict(b)
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			ev := o.CloneForWorker()
			for pb.Next() {
				pass(ev)
			}
		})
		perVerdict(b)
	})
}

// BenchmarkSmallCNN_StatisticalVsExhaustive runs the four statistical
// campaigns on the trained SmallCNN with real inference, restricted to
// layer 0, and reports each estimate (the inference-substrate
// counterpart of Fig. 6).
func BenchmarkSmallCNN_StatisticalVsExhaustive(b *testing.B) {
	net, inj := smallFixture(b)
	space := inj.Space()
	cfg := sfi.DefaultConfig()
	analysis := sfi.AnalyzeWeights(net.AllWeights())

	keepLayer0 := func(p *sfi.Plan) *sfi.Plan {
		var subpops []sfi.Subpopulation
		for _, s := range p.Subpops {
			if s.Layer == 0 || s.Layer == -1 {
				subpops = append(subpops, s)
			}
		}
		out := *p
		out.Subpops = subpops
		return &out
	}
	plans := []*sfi.Plan{
		sfi.PlanNetworkWise(space, cfg),
		keepLayer0(sfi.PlanLayerWise(space, cfg)),
		keepLayer0(sfi.PlanDataUnaware(space, cfg)),
		keepLayer0(sfi.PlanDataAware(space, cfg, analysis.P)),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, plan := range plans {
			res := sfi.Run(inj, plan, int64(i))
			est := res.LayerEstimate(0)
			b.ReportMetric(est.PHat()*100, plan.Approach.String()+"_estimate_pct")
		}
	}
}

// BenchmarkAblation_RoundedVsExactZ quantifies the paper's rounded
// z = 2.58 convention against the exact 2.5758 quantile.
func BenchmarkAblation_RoundedVsExactZ(b *testing.B) {
	net, _, _ := resnetFixture(b)
	space := sfi.StuckAtSpace(net)
	rounded := sfi.DefaultConfig()
	exact := sfi.DefaultConfig()
	exact.UseExactZ = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nr := sfi.PlanLayerWise(space, rounded).TotalInjections()
		ne := sfi.PlanLayerWise(space, exact).TotalInjections()
		b.ReportMetric(float64(nr), "rounded_n")
		b.ReportMetric(float64(ne), "exact_n")
		if ne >= nr {
			b.Fatal("exact z (2.5758 < 2.58) must plan slightly fewer injections")
		}
	}
}

// BenchmarkAblation_GammaSweep sweeps the data-aware sharpness exponent:
// γ = 1 is the literal linear Eq. 5, γ = 2 the calibrated default.
func BenchmarkAblation_GammaSweep(b *testing.B) {
	net, _, _ := resnetFixture(b)
	space := sfi.StuckAtSpace(net)
	cfg := sfi.DefaultConfig()
	weights := net.AllWeights()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, gamma := range []float64{1, 2, 3} {
			a := dataaware.AnalyzeGamma(weights, fp.FP32, gamma)
			plan := sfi.PlanDataAware(space, cfg, a.P)
			b.ReportMetric(float64(plan.TotalInjections()), "gamma_n")
		}
	}
}

// BenchmarkAblation_ErrorMarginSweep shows how the campaign cost scales
// with the requested error margin.
func BenchmarkAblation_ErrorMarginSweep(b *testing.B) {
	net, _, _ := resnetFixture(b)
	space := sfi.StuckAtSpace(net)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range []float64{0.005, 0.01, 0.02, 0.05} {
			cfg := sfi.DefaultConfig()
			cfg.ErrorMargin = e
			b.ReportMetric(float64(sfi.PlanLayerWise(space, cfg).TotalInjections()), "layerwise_n")
		}
	}
}

// BenchmarkAblation_SamplingWithoutReplacement measures the Floyd
// sampler at campaign scale.
func BenchmarkAblation_SamplingWithoutReplacement(b *testing.B) {
	net, _, _ := resnetFixture(b)
	space := faultmodel.NewStuckAt(net.LayerParamCounts(), 32)
	_ = space
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := sfi.DefaultConfig()
		n := cfg.SampleSize(space.Total())
		b.ReportMetric(float64(n), "n")
	}
}

// BenchmarkExtension_INT8DataAware runs the data-aware analysis on the
// INT8-quantized ResNet-20 weights (the "different data representations"
// extension): the integer staircase spreads criticality across bits, so
// the data-aware saving shrinks relative to FP32.
func BenchmarkExtension_INT8DataAware(b *testing.B) {
	net, _, _ := resnetFixture(b)
	weights := net.AllWeights()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := quantize.Analyze(weights)
		var sum float64
		for _, p := range a.P {
			sum += p * (1 - p)
		}
		b.ReportMetric(sum/(quantize.Bits*0.25), "variance_ratio")
	}
}

// BenchmarkExtension_ActivationFaults runs a layer-wise statistical
// campaign over the transient activation-fault universe of the trained
// SmallCNN with real inference.
func BenchmarkExtension_ActivationFaults(b *testing.B) {
	net, _ := smallFixture(b)
	evalSet := sfi.SyntheticDataset(sfi.DatasetConfig{N: 4, Seed: 9, Size: 16, Noise: 0.1})
	act := sfi.NewActivationInjector(net, evalSet)
	cfg := sfi.DefaultConfig()
	cfg.ErrorMargin = 0.05 // keep the inference budget modest
	plan := sfi.PlanLayerWise(act.Space(), cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sfi.Run(act, plan, int64(i))
		for l := 0; l < act.Space().NumLayers(); l++ {
			est := res.LayerEstimate(l)
			b.ReportMetric(est.PHat()*100, fmt.Sprintf("layer%d_critical_pct", l))
		}
	}
}

// BenchmarkExtension_ResNetFamilyPlans scales the Table I planning
// across the CIFAR ResNet family (the "different architectures"
// direction of the conclusions).
func BenchmarkExtension_ResNetFamilyPlans(b *testing.B) {
	cfg := sfi.DefaultConfig()
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"resnet20", "resnet32", "resnet44", "resnet56"} {
			net, err := sfi.BuildModel(name, 1)
			if err != nil {
				b.Fatal(err)
			}
			space := sfi.StuckAtSpace(net)
			analysis := sfi.AnalyzeWeights(net.AllWeights())
			aware := sfi.PlanDataAware(space, cfg, analysis.P)
			b.ReportMetric(aware.InjectedFraction()*100, name+"_injected_pct")
		}
	}
}

// BenchmarkAblation_CriterionChoice compares the SDC and accuracy-drop
// criticality criteria on the trained SmallCNN with real inference.
func BenchmarkAblation_CriterionChoice(b *testing.B) {
	_, inj := smallFixture(b)
	space := inj.Space()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, crit := range []inject.Criterion{inject.SDC, inject.AccuracyDrop} {
			inj.Criterion = crit
			critical := 0
			const probes = 500
			n := space.LayerTotal(0)
			for k := 0; k < probes; k++ {
				j := int64(k) * (n - 1) / (probes - 1)
				if inj.IsCritical(space.LayerFault(0, j)) {
					critical++
				}
			}
			b.ReportMetric(float64(critical)/probes*100, crit.String()+"_critical_pct")
		}
		inj.Criterion = inject.SDC
	}
}

// benchSerialVsParallel measures the serial Run against the
// shard-parallel RunParallel (2 and 4 workers) on the same plan, as
// sub-benchmarks, so the ns/op ratio is the wall-clock speedup
// (EXPERIMENTS.md records the measured ratios; on a single-core host
// the runners tie, on an n-core host the network-wise plan — one
// stratum, previously unparallelizable — scales with min(n, workers)).
// It first asserts the results are bit-identical: parallelism must
// never change the statistics it accelerates.
func benchSerialVsParallel(b *testing.B, ev sfi.Evaluator, plan *sfi.Plan) {
	serial := sfi.Run(ev, plan, 0)
	parallel := sfi.RunParallel(ev, plan, 0, 4)
	for i := range serial.Estimates {
		if parallel.Estimates[i] != serial.Estimates[i] {
			b.Fatalf("stratum %d: parallel result diverged from serial", i)
		}
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sfi.Run(ev, plan, int64(i))
		}
	})
	for _, w := range []int{2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sfi.RunParallel(ev, plan, int64(i), w)
			}
		})
	}
}

// inferenceBenchConfig relaxes the error margin to 2% for the
// inference-family parallel benchmarks: real forward passes are ~10³×
// the cost of an oracle verdict, and the speedup ratio is margin-
// independent.
func inferenceBenchConfig() sfi.Config {
	cfg := sfi.DefaultConfig()
	cfg.ErrorMargin = 0.02
	return cfg
}

func BenchmarkParallel_NetworkWiseOracle(b *testing.B) {
	_, o, _ := resnetFixture(b)
	benchSerialVsParallel(b, o, sfi.PlanNetworkWise(o.Space(), sfi.DefaultConfig()))
}

func BenchmarkParallel_LayerWiseOracle(b *testing.B) {
	_, o, _ := resnetFixture(b)
	benchSerialVsParallel(b, o, sfi.PlanLayerWise(o.Space(), sfi.DefaultConfig()))
}

func BenchmarkParallel_DataAwareOracle(b *testing.B) {
	net, o, _ := resnetFixture(b)
	analysis := sfi.AnalyzeWeights(net.AllWeights())
	benchSerialVsParallel(b, o, sfi.PlanDataAware(o.Space(), sfi.DefaultConfig(), analysis.P))
}

func BenchmarkParallel_NetworkWiseInference(b *testing.B) {
	_, inj := smallFixture(b)
	benchSerialVsParallel(b, inj, sfi.PlanNetworkWise(inj.Space(), inferenceBenchConfig()))
}

func BenchmarkParallel_LayerWiseInference(b *testing.B) {
	_, inj := smallFixture(b)
	benchSerialVsParallel(b, inj, sfi.PlanLayerWise(inj.Space(), inferenceBenchConfig()))
}

func BenchmarkParallel_DataAwareInference(b *testing.B) {
	net, inj := smallFixture(b)
	analysis := sfi.AnalyzeWeights(net.AllWeights())
	benchSerialVsParallel(b, inj, sfi.PlanDataAware(inj.Space(), inferenceBenchConfig(), analysis.P))
}

// BenchmarkEngine_Overhead prices the unified campaign engine against
// the legacy entry points it replaced. Run/RunParallel are now thin
// wrappers over NewEngine(...).Execute, so "wrapper" vs "engine" at the
// same worker count isolates pure wrapper cost (one allocation + a
// context plumb) — the ns/op pairs should tie within noise, which is
// the evidence that unifying the runners cost nothing
// (EXPERIMENTS.md records the measured ratios). Oracle layer-wise plan:
// big enough to amortize setup, cheap enough for -benchtime defaults.
func BenchmarkEngine_Overhead(b *testing.B) {
	_, o, _ := resnetFixture(b)
	plan := sfi.PlanLayerWise(o.Space(), sfi.DefaultConfig())
	ctx := context.Background()
	b.Run("wrapper/serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sfi.Run(o, plan, int64(i))
		}
	})
	b.Run("engine/serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sfi.NewEngine(sfi.WithWorkers(1)).Execute(ctx, o, plan, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("wrapper/workers=4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sfi.RunParallel(o, plan, int64(i), 4)
		}
	})
	b.Run("engine/workers=4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sfi.NewEngine(sfi.WithWorkers(4)).Execute(ctx, o, plan, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngine_TableIIIOracle prices one Execute of each of the four
// ResNet-20 Table III oracle plans (5.59M draws over 1,301 strata) at 2
// workers, the campaign set of campaignbench's oracle-table3 workload.
// Oracle verdicts cost ~100 ns, so time and B/op are mostly the
// engine's own: the streamed draw, sharding, merge and tally. B/op stays
// bounded by the shard buffers, far below the plans' 45 MB of samples.
func BenchmarkEngine_TableIIIOracle(b *testing.B) {
	net, o, _ := resnetFixture(b)
	space, cfg := o.Space(), sfi.DefaultConfig()
	plans := []*sfi.Plan{
		sfi.PlanNetworkWise(space, cfg),
		sfi.PlanLayerWise(space, cfg),
		sfi.PlanDataUnaware(space, cfg),
		sfi.PlanDataAware(space, cfg, sfi.AnalyzeWeights(net.AllWeights()).P),
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, plan := range plans {
			if _, err := sfi.NewEngine(sfi.WithWorkers(2)).Execute(ctx, o, plan, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEngine_TelemetryOff prices the engine with every telemetry
// seam left nil — the baseline the telemetry layer must not move. Pair
// with BenchmarkEngine_TelemetryOn: the Off/On ns/op ratio is the whole
// cost of full tracing (JSONL trace + progress + per-experiment latency
// histogram), and Off must match BenchmarkEngine_Overhead's
// engine/serial case exactly, since a disabled seam is just a nil check.
func BenchmarkEngine_TelemetryOff(b *testing.B) {
	_, o, _ := resnetFixture(b)
	plan := sfi.PlanLayerWise(o.Space(), sfi.DefaultConfig())
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sfi.NewEngine(sfi.WithWorkers(1)).Execute(ctx, o, plan, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngine_TelemetryOn runs the identical campaign with the full
// telemetry stack attached: a Tracer recording JSONL to io.Discard,
// progress streaming through the same tracer, and the experiment
// latency histogram on the oracle's verdict path.
func BenchmarkEngine_TelemetryOn(b *testing.B) {
	_, o, _ := resnetFixture(b)
	plan := sfi.PlanLayerWise(o.Space(), sfi.DefaultConfig())
	var hist sfi.LatencyHistogram
	o.SetLatencyHistogram(&hist)
	defer o.SetLatencyHistogram(nil) // the fixture is shared across benchmarks
	tr := telemetry.NewTracer(io.Discard, 1024)
	defer tr.Close()
	sink, prog := tr.Sink("bench"), tr.Progress("bench")
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sfi.NewEngine(
			sfi.WithWorkers(1),
			sfi.WithTrace(sink),
			sfi.WithProgress(prog),
		)
		if _, err := eng.Execute(ctx, o, plan, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngine_SupervisionOff prices the engine with campaign
// supervision disabled — the default, where the supervised() check is a
// plain field comparison and every experiment runs on the classic
// allocation-free path. This is the baseline the supervision layer must
// not move; it should match BenchmarkEngine_TelemetryOff.
func BenchmarkEngine_SupervisionOff(b *testing.B) {
	_, o, _ := resnetFixture(b)
	plan := sfi.PlanLayerWise(o.Space(), sfi.DefaultConfig())
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sfi.NewEngine(sfi.WithWorkers(1)).Execute(ctx, o, plan, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngine_SupervisionOn runs the identical campaign under panic
// isolation with retries enabled (no watchdog): each experiment executes
// inside a recover-protected closure. The Off/On ns/op ratio is the cost
// of supervision on a healthy evaluator.
func BenchmarkEngine_SupervisionOn(b *testing.B) {
	_, o, _ := resnetFixture(b)
	plan := sfi.PlanLayerWise(o.Space(), sfi.DefaultConfig())
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sfi.NewEngine(sfi.WithWorkers(1), sfi.WithMaxRetries(2))
		if _, err := eng.Execute(ctx, o, plan, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngine_SupervisionWatchdog adds the per-experiment deadline:
// every experiment is handed to a persistent lane goroutine and raced
// against a timer, the most expensive supervision configuration.
func BenchmarkEngine_SupervisionWatchdog(b *testing.B) {
	_, o, _ := resnetFixture(b)
	plan := sfi.PlanLayerWise(o.Space(), sfi.DefaultConfig())
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sfi.NewEngine(sfi.WithWorkers(1), sfi.WithMaxRetries(2),
			sfi.WithExperimentTimeout(time.Minute))
		if _, err := eng.Execute(ctx, o, plan, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_PerLayerDataAware compares the paper's network-wide
// p(i) against the per-layer refinement p(i, l): matching each layer's
// own weight distribution shifts the injection budget between layers.
func BenchmarkAblation_PerLayerDataAware(b *testing.B) {
	net, _, _ := resnetFixture(b)
	space := sfi.StuckAtSpace(net)
	cfg := sfi.DefaultConfig()
	global := sfi.AnalyzeWeights(net.AllWeights())
	perLayer := sfi.AnalyzeWeightsPerLayer(net)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := sfi.PlanDataAware(space, cfg, global.P)
		pl := sfi.PlanDataAwarePerLayer(space, cfg, perLayer.P())
		b.ReportMetric(float64(g.TotalInjections()), "global_n")
		b.ReportMetric(float64(pl.TotalInjections()), "perlayer_n")
	}
}

// BenchmarkExtension_MBUWidthSweep lifts the paper's single-fault
// assumption: bursts of adjacent bit-flips (multi-bit upsets) become
// increasingly critical as the burst reaches the high exponent bits.
func BenchmarkExtension_MBUWidthSweep(b *testing.B) {
	_, inj := smallFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, width := range []int{1, 2, 3} {
			critical := 0
			const probes = 100
			for k := 0; k < probes; k++ {
				seed := faultmodel.Fault{
					Layer: 2, Param: k * 11 % 1152, Bit: 28,
					Model: faultmodel.BitFlip,
				}
				if inj.IsCriticalMulti(inject.AdjacentMBU(seed, width, fp.Bits32)) {
					critical++
				}
			}
			b.ReportMetric(float64(critical), fmt.Sprintf("width%d_critical_of_100", width))
		}
	}
}
