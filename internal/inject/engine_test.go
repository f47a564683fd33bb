package inject

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"cnnsfi/internal/core"
	"cnnsfi/internal/stats"
)

// TestEngineCheckpointResumeInjector is the inference-substrate half of
// the checkpoint acceptance criterion: a campaign on the real
// forward-pass injector killed mid-run and resumed must yield a Result
// byte-identical to the uninterrupted run at the same seed and worker
// count, with workers 1+ evaluating on per-worker weight clones. It
// lives here because core's in-package tests cannot import inject
// (cycle).
func TestEngineCheckpointResumeInjector(t *testing.T) {
	inj := newTestInjector(t)
	cfg := stats.DefaultConfig()
	cfg.ErrorMargin = 0.05 // keep the inference campaign small
	const seed, workers = 3, 4

	for _, plan := range []*core.Plan{
		core.PlanNetworkWise(inj.Space(), cfg),
		core.PlanLayerWise(inj.Space(), cfg),
	} {
		var want bytes.Buffer
		if err := core.RunParallel(inj, plan, seed, workers).WriteJSON(&want); err != nil {
			t.Fatal(err)
		}

		ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
		ctx, cancel := context.WithCancel(context.Background())
		var once sync.Once
		eng := core.NewEngine(
			core.WithWorkers(workers),
			core.WithCheckpoint(ckpt),
			// Cancel at the first progress event: the fast path makes
			// shards short enough that waiting for a deep cutoff would
			// race the in-flight completion overrun past the plan total,
			// leaving nothing to resume.
			core.WithProgress(func(p core.Progress) {
				if !p.Final {
					once.Do(cancel)
				}
			}))
		partial, err := eng.Execute(ctx, inj, plan, seed)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: interrupted run returned %v, want context.Canceled", plan.Approach, err)
		}
		if partial.Injections() >= plan.TotalInjections() {
			t.Fatalf("%s: interruption left no work to resume", plan.Approach)
		}

		resumed, err := core.NewEngine(core.WithWorkers(workers),
			core.WithCheckpoint(ckpt), core.WithResume()).
			Execute(context.Background(), inj, plan, seed)
		if err != nil {
			t.Fatalf("%s: resume failed: %v", plan.Approach, err)
		}
		var got bytes.Buffer
		if err := resumed.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: resumed inference campaign differs from uninterrupted run", plan.Approach)
		}
	}
}
