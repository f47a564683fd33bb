package core

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"cnnsfi/internal/dataaware"
	"cnnsfi/internal/models"
	"cnnsfi/internal/stats"
)

// allApproachPlans builds one plan per sampling approach over the same
// fault space, so determinism tests cover every stratification shape:
// one stratum (network-wise), per-layer strata, and per-(layer,bit)
// strata with both uniform and data-aware planned probabilities.
func allApproachPlans(t testing.TB) (*Plan, *Plan, *Plan, *Plan) {
	t.Helper()
	o, _ := smallOracle(t)
	cfg := stats.DefaultConfig()
	p := dataaware.AnalyzeFP32(models.SmallCNN(1).AllWeights()).P
	return PlanNetworkWise(o.Space(), cfg),
		PlanLayerWise(o.Space(), cfg),
		PlanDataUnaware(o.Space(), cfg),
		PlanDataAware(o.Space(), cfg, p)
}

// requireSameResult fails unless a and b are bit-identical: same
// estimates in the same order and the same per-layer slices (compared
// in both directions so an extra key on either side is caught).
func requireSameResult(t *testing.T, label string, serial, parallel *Result) {
	t.Helper()
	if len(parallel.Estimates) != len(serial.Estimates) {
		t.Fatalf("%s: %d estimates, want %d", label, len(parallel.Estimates), len(serial.Estimates))
	}
	for i := range serial.Estimates {
		if parallel.Estimates[i] != serial.Estimates[i] {
			t.Fatalf("%s stratum %d: %+v != %+v",
				label, i, parallel.Estimates[i], serial.Estimates[i])
		}
	}
	if len(parallel.LayerSlices) != len(serial.LayerSlices) {
		t.Fatalf("%s: %d layer slices, want %d",
			label, len(parallel.LayerSlices), len(serial.LayerSlices))
	}
	for l, est := range serial.LayerSlices {
		got, ok := parallel.LayerSlices[l]
		if !ok || got != est {
			t.Fatalf("%s layer slice %d: %+v != %+v", label, l, got, est)
		}
	}
}

// TestRunParallelMatchesRun: identical seeds must produce bit-identical
// results regardless of worker count — parallel execution must not
// change the statistics. Covers all four sampling approaches,
// including the network-wise single stratum whose LayerSlices are
// re-derived from shard-merged per-layer tallies.
func TestRunParallelMatchesRun(t *testing.T) {
	o, _ := smallOracle(t)
	nw, lw, du, da := allApproachPlans(t)
	for _, plan := range []*Plan{nw, lw, du, da} {
		serial := Run(o, plan, 5)
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0), 0} {
			parallel := RunParallel(o, plan, 5, workers)
			requireSameResult(t, string(plan.Approach), serial, parallel)
		}
	}
}

// TestRunParallelValidateDecode runs the shard path with the
// SFI_VALIDATE_DECODE cross-check enabled: every decoded fault is
// round-tripped through decodeFaultChecked, and the result must still
// match the serial runner (the check may only verify, never alter).
func TestRunParallelValidateDecode(t *testing.T) {
	old := validateDecode
	validateDecode = true
	defer func() { validateDecode = old }()

	o, _ := smallOracle(t)
	nw, _, _, da := allApproachPlans(t)
	for _, plan := range []*Plan{nw, da} {
		requireSameResult(t, string(plan.Approach)+"+validate",
			Run(o, plan, 2), RunParallel(o, plan, 2, 4))
	}
}

func TestRunParallelRace(t *testing.T) {
	// Exercised under `go test -race` in CI-style runs; here it at
	// least verifies no panics and correct totals with many workers.
	o, _ := smallOracle(t)
	plan := PlanDataUnaware(o.Space(), stats.DefaultConfig())
	res := RunParallel(o, plan, 0, 8)
	if res.Injections() != plan.TotalInjections() {
		t.Errorf("injections = %d, want %d", res.Injections(), plan.TotalInjections())
	}
}

// drawnSamples is the reference draw every campaign must reproduce:
// one generator seeded with seed, each stratum's whole sample drawn in
// plan order.
func drawnSamples(plan *Plan, seed int64) [][]int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int64, len(plan.Subpops))
	for i, sub := range plan.Subpops {
		out[i] = stats.SampleWithoutReplacement(rng, sub.Population, sub.SampleSize)
	}
	return out
}

// TestShardGrid checks the streamed draw's partition: shards arrive in
// plan order with consecutive sequence numbers, each inside one grid
// cell and clipped to its stratum's window, contiguous from the first
// emitted draw to the window's end, holding exactly the reference draw.
// It covers a full run and a ranged run that also resumes two strata
// mid-window (one of them off the grid, as a v2 checkpoint can).
func TestShardGrid(t *testing.T) {
	_, lw, _, _ := allApproachPlans(t)
	const seed = 7
	want := drawnSamples(lw, seed)
	n := func(i int) int64 { return lw.Subpops[i].SampleSize }
	g := shardGrid(lw)
	ranged := []DrawRange{{0, n(0)}, {1000, n(1) - 5}, {5000, 5000}, {g / 2, n(3) - 1}}
	for label, tc := range map[string]struct {
		ranges []DrawRange
		first  []int64
	}{
		"full":            {nil, make([]int64, len(lw.Subpops))},
		"ranged, resumed": {ranged, []int64{g + 1, 1000, 5000, 3 * g / 2}},
	} {
		x := &execution{plan: lw, seed: seed, ranges: tc.ranges, grid: g}
		free := make(chan []int64, 2)
		free <- nil
		free <- nil
		out := make(chan *shard)
		go x.drawShards(tc.first, free, out, make(chan struct{}))
		next := slices.Clone(tc.first)
		seq, last := 0, 0
		for s := range out {
			_, to := x.rangeBounds(s.stratum)
			end := s.start + int64(len(s.idx))
			switch {
			case s.seq != seq || s.stratum < last:
				t.Fatalf("%s: shard %d (stratum %d) after shard %d of stratum %d", label, s.seq, s.stratum, seq-1, last)
			case s.start != next[s.stratum] || end > to || end <= s.start:
				t.Fatalf("%s: stratum %d shard [%d, %d) does not continue at %d inside its window ending %d",
					label, s.stratum, s.start, end, next[s.stratum], to)
			case end != to && end%g != 0 || (end-1)/g != s.start/g:
				t.Fatalf("%s: stratum %d shard [%d, %d) is not one grid cell", label, s.stratum, s.start, end)
			case !slices.Equal(s.idx, want[s.stratum][s.start:end]):
				t.Fatalf("%s: stratum %d shard [%d, %d) diverges from the reference draw", label, s.stratum, s.start, end)
			}
			next[s.stratum], seq, last = end, seq+1, s.stratum
			free <- s.idx
		}
		for i := range lw.Subpops {
			if _, to := x.rangeBounds(i); next[i] != to {
				t.Errorf("%s: stratum %d drawn to %d, window ends at %d", label, i, next[i], to)
			}
		}
	}
}

func TestDecodeFaultChecked(t *testing.T) {
	o, _ := smallOracle(t)
	space := o.Space()
	sub := Subpopulation{Layer: 0, Bit: 30, Population: space.BitLayerTotal(0)}
	f, err := decodeFaultChecked(space, sub, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Layer != 0 || f.Bit != 30 {
		t.Errorf("decoded %v", f)
	}
}
