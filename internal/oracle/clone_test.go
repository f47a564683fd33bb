package oracle

import (
	"bytes"
	"context"
	"testing"

	"cnnsfi/internal/core"
	"cnnsfi/internal/dataaware"
	"cnnsfi/internal/evalstats"
	"cnnsfi/internal/models"
	"cnnsfi/internal/stats"
)

// TestWorkerCountInvariance executes the Table III layer-wise and
// data-aware plans on one ResNet-20 oracle at 1, 2 and 4 workers: the
// Result bytes and the EvalStats delta must not depend on the worker
// count, and every planned injection must be counted exactly once
// across the root and its clones.
func TestWorkerCountInvariance(t *testing.T) {
	net := models.ResNet20(1)
	o := New(net, DefaultConfig(3))
	space := o.Space()
	cfg := stats.DefaultConfig()
	plans := map[string]*core.Plan{
		"layer-wise": core.PlanLayerWise(space, cfg),
		"data-aware": core.PlanDataAware(space, cfg, dataaware.AnalyzeFP32(net.AllWeights()).P),
	}
	for name, plan := range plans {
		var wantJSON []byte
		var wantDelta evalstats.EvalStats
		for _, workers := range []int{1, 2, 4} {
			before := o.EvalStats()
			res, err := core.NewEngine(core.WithWorkers(workers)).Execute(context.Background(), o, plan, 5)
			if err != nil {
				t.Fatal(err)
			}
			delta := o.EvalStats().Sub(before)
			var buf bytes.Buffer
			if err := res.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if got, want := delta.Experiments(), plan.TotalInjections(); got != want {
				t.Errorf("%s workers=%d: Skipped+Evaluated = %d, want the %d planned injections", name, workers, got, want)
			}
			if wantJSON == nil {
				wantJSON, wantDelta = buf.Bytes(), delta
				continue
			}
			if !bytes.Equal(buf.Bytes(), wantJSON) {
				t.Errorf("%s workers=%d: Result bytes differ from workers=1", name, workers)
			}
			if delta != wantDelta {
				t.Errorf("%s workers=%d: EvalStats delta %+v, want %+v", name, workers, delta, wantDelta)
			}
		}
	}
}

// TestCounterStorageIsFixed runs 100 campaigns on one oracle: clones
// must keep counting into the root's fixed slot array — never into new
// storage — so counter memory stays constant however often the oracle
// is cloned, and EvalStats still sums every experiment.
func TestCounterStorageIsFixed(t *testing.T) {
	o := newSmallOracle(t)
	plan := core.PlanLayerWise(o.Space(), stats.SampleSizeConfig{ErrorMargin: 0.2, Confidence: 0.9, P: 0.5})
	storage := o.counters
	for i := 0; i < 100; i++ {
		if _, err := core.NewEngine(core.WithWorkers(4)).Execute(context.Background(), o, plan, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if o.counters != storage {
		t.Fatalf("counter storage replaced across campaigns")
	}
	if got, want := o.EvalStats().Experiments(), 100*plan.TotalInjections(); got != want {
		t.Errorf("EvalStats counted %d experiments, want %d", got, want)
	}
	slotIndex := func(c *counterSlot) int {
		for i := range storage.slots {
			if &storage.slots[i] == c {
				return i
			}
		}
		return -1
	}
	for i := 0; i < 3*counterSlots; i++ {
		c := o.CloneForWorker().(*Oracle)
		if c.counters != storage || slotIndex(c.slot) < 1 {
			t.Fatalf("clone %d counts outside the root's non-root slots", i)
		}
	}
}

// TestCloneSharesModelAndCountsPrivately: a clone gives the root's
// verdicts, counts into a different slot than the root, and clones of
// clones still report into the same root.
func TestCloneSharesModelAndCountsPrivately(t *testing.T) {
	o := newSmallOracle(t)
	var hist evalstats.Histogram
	o.SetLatencyHistogram(&hist)
	c := o.CloneForWorker().(*Oracle)
	cc := c.CloneForWorker().(*Oracle)
	if c.slot == o.slot || cc.slot == c.slot {
		t.Fatal("clones share a counter slot with their parent")
	}
	if c.latency != &hist || &c.weights[0][0] != &o.weights[0][0] {
		t.Fatal("clone does not share the read-only model")
	}
	space := o.Space()
	for g := int64(0); g < space.Total(); g += 97 {
		f := space.GlobalFault(g)
		if v := o.IsCritical(f); c.IsCritical(f) != v || cc.IsCritical(f) != v {
			t.Fatalf("%v: clone verdict differs", f)
		}
	}
	n := (space.Total() + 96) / 97
	if got := o.EvalStats().Experiments(); got != 3*n {
		t.Errorf("EvalStats = %d experiments, want %d", got, 3*n)
	}
	if got := cc.EvalStats(); got != o.EvalStats() {
		t.Errorf("clone-of-clone EvalStats %+v, root %+v", got, o.EvalStats())
	}
	if hist.Snapshot().Count != o.EvalStats().Evaluated {
		t.Errorf("latency histogram saw %d verdicts, want %d", hist.Snapshot().Count, o.EvalStats().Evaluated)
	}
}
