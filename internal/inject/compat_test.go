package inject_test

import (
	"bytes"
	"context"
	"testing"

	"cnnsfi/sfi"
)

// TestEngineBatchedGroupedBitIdentity: Injector.SetBatchSize and
// sfi.WithGroupedEvaluation are kept for compatibility and do nothing, so
// a campaign with both set serializes to the exact bytes of the plain
// run, at 1 and 4 workers. It is an external test because sfi imports
// this package.
func TestEngineBatchedGroupedBitIdentity(t *testing.T) {
	net, err := sfi.BuildModel("smallcnn", 1)
	if err != nil {
		t.Fatal(err)
	}
	plain := sfi.NewInjector(net, sfi.SyntheticDataset(sfi.DatasetConfig{N: 8, Seed: 1, Size: 16}))
	knobs := plain.Clone()
	knobs.SetBatchSize(8)
	cfg := sfi.DefaultConfig()
	cfg.ErrorMargin = 0.05
	const seed = 11
	run := func(ev sfi.Evaluator, plan *sfi.Plan, opts ...sfi.EngineOption) []byte {
		t.Helper()
		res, err := sfi.NewEngine(opts...).Execute(context.Background(), ev, plan, seed)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, plan := range []*sfi.Plan{
		sfi.PlanNetworkWise(plain.Space(), cfg),
		sfi.PlanLayerWise(plain.Space(), cfg),
	} {
		want := run(plain, plan, sfi.WithWorkers(1))
		for _, workers := range []int{1, 4} {
			got := run(knobs, plan, sfi.WithWorkers(workers), sfi.WithGroupedEvaluation(true))
			if !bytes.Equal(got, want) {
				t.Errorf("%s workers=%d: SetBatchSize(8) + WithGroupedEvaluation(true) changed the Result",
					plan.Approach, workers)
			}
		}
	}
}
