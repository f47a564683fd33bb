// Campaign engine tour: execute a layer-wise campaign through
// sfi.NewEngine with streaming progress, then demonstrate the
// checkpoint/resume guarantee — a campaign interrupted mid-run and
// resumed, at a different worker count, ends in a Result byte-identical
// to the uninterrupted run at the same seed.
//
// Run with:
//
//	go run ./examples/campaign_engine
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"cnnsfi/sfi"
)

func main() {
	net, err := sfi.BuildModel("smallcnn", 1)
	if err != nil {
		log.Fatal(err)
	}
	space := sfi.StuckAtSpace(net)
	cfg := sfi.DefaultConfig() // e = 1%, 99% confidence
	plan := sfi.PlanLayerWise(space, cfg)
	o := sfi.NewOracle(net, sfi.OracleDefaults(3))
	const seed, workers = 7, 4

	// 1. Streaming progress. Progress sinks run on the engine's
	//    dispatcher goroutine each time one shard-grid spacing of
	//    injections has merged, so a sink that does I/O (like this
	//    printer) is decoupled through sfi.AsyncSink: events are handed
	//    to a drain goroutine through a small buffer, interior events
	//    are dropped rather than ever blocking the dispatcher, and the
	//    final event is always delivered. Every stratum evaluates its
	//    whole planned sample, so each per-layer estimate carries the
	//    margin the plan was sized for.
	fmt.Printf("layer-wise plan: %d strata, %d injections\n\n",
		len(plan.Subpops), plan.TotalInjections())
	progress, stopProgress := sfi.AsyncSink(func(p sfi.Progress) {
		fmt.Printf("  %6.1f%%  done=%-6d critical=%-5d %.0f inj/s\n",
			float64(p.Done)/float64(p.Planned)*100, p.Done, p.Critical, p.Rate)
	}, 64)
	eng := sfi.NewEngine(
		sfi.WithWorkers(workers),
		sfi.WithProgress(progress),
	)
	res, err := eng.Execute(context.Background(), o, plan, seed)
	stopProgress() // drain buffered progress lines before printing the tally
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncompleted %d/%d injections\n", res.Injections(), plan.TotalInjections())

	// 2. Checkpoint/resume bit-identity. Reference: the uninterrupted
	//    run at the same seed. Shards are cut on the plan's draw grid,
	//    so the resume below may use any worker count.
	want := runBytes(sfi.RunParallel(o, plan, seed, workers))

	// Interrupt the same campaign a third of the way through by
	// cancelling the context from the progress sink; the engine writes
	// the checkpoint and returns the merged prefix as a partial Result.
	dir, err := os.MkdirTemp("", "campaign-engine")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "layerwise.ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	partial, err := sfi.NewEngine(
		sfi.WithWorkers(workers),
		sfi.WithCheckpoint(ckpt),
		sfi.WithProgress(func(p sfi.Progress) {
			if p.Done >= plan.TotalInjections()/3 {
				once.Do(cancel)
			}
		}),
	).Execute(ctx, o, plan, seed)
	cancel()
	if !errors.Is(err, context.Canceled) {
		log.Fatalf("expected cancellation, got %v", err)
	}
	fmt.Printf("\ninterrupted after %d/%d injections (partial=%v), checkpoint saved\n",
		partial.Injections(), plan.TotalInjections(), partial.Partial)

	// Resume from the checkpoint on a single worker and finish the
	// campaign.
	resumed, err := sfi.NewEngine(
		sfi.WithWorkers(1),
		sfi.WithCheckpoint(ckpt),
		sfi.WithResume(),
	).Execute(context.Background(), o, plan, seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed to completion: %d injections\n", resumed.Injections())

	if bytes.Equal(runBytes(resumed), want) {
		fmt.Println("resumed result is byte-identical to the uninterrupted run")
	} else {
		log.Fatal("resumed result diverged from the uninterrupted run")
	}
}

func runBytes(r *sfi.Result) []byte {
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		log.Fatal(err)
	}
	return buf.Bytes()
}
