package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"cnnsfi/internal/models"
	"cnnsfi/internal/oracle"
	"cnnsfi/internal/stats"
)

// TestShardGridSpacing pins the grid rule: the largest power of two up
// to maxShardGrid that still cuts the plan into minGridCells shards.
func TestShardGridSpacing(t *testing.T) {
	for _, tc := range []struct{ total, want int64 }{
		{1, 1}, {31, 1}, {32, 1}, {63, 1}, {64, 2}, {662, 16}, {33546, 1024},
		{minGridCells*maxShardGrid - 1, maxShardGrid / 2}, {minGridCells * maxShardGrid, maxShardGrid}, {4885632, maxShardGrid},
	} {
		plan := &Plan{Subpops: []Subpopulation{{Population: tc.total, SampleSize: tc.total}}}
		if got := shardGrid(plan); got != tc.want {
			t.Errorf("total %d: grid %d, want %d", tc.total, got, tc.want)
		}
	}
}

// fixedNResult runs plan at fixed n, optionally windowed, interrupted
// and resumed through a checkpoint.
func fixedNResult(t *testing.T, ev Evaluator, plan *Plan, ranges []DrawRange, workers int, ctx context.Context, ckpt string) (*Result, error) {
	t.Helper()
	opts := []Option{WithWorkers(workers), WithDrawRanges(ranges)}
	if ckpt != "" {
		checkpointEveryMerge(t)
		opts = append(opts, WithCheckpoint(ckpt), WithResume())
	}
	return NewEngine(opts...).Execute(ctx, ev, plan, 5)
}

// TestFixedNIndependentOfWorkersAndResume is the differential test of
// the plan-derived shard grid. The data-unaware plan's Result must be
// the same bytes at workers 1 to 4, and a run cancelled at 1 worker,
// resumed at 4, cancelled again and resumed at 2 must reproduce the
// uninterrupted 3-worker run byte for byte. The same holds for a
// WithDrawRanges window that starts off the grid.
func TestFixedNIndependentOfWorkersAndResume(t *testing.T) {
	o, _ := smallOracle(t)
	cfg := stats.DefaultConfig()
	cfg.ErrorMargin = 0.005 // the largest strata span two grid cells
	du := PlanDataUnaware(o.Space(), cfg)
	if g := shardGrid(du); !slices.ContainsFunc(du.Subpops, func(s Subpopulation) bool { return s.SampleSize > g }) {
		t.Fatalf("no stratum spans more than one %d-draw grid cell", g)
	}
	window := make([]DrawRange, len(du.Subpops)) // off the grid, up to the end
	for i, sub := range du.Subpops {
		window[i] = DrawRange{From: min(100, sub.SampleSize), To: sub.SampleSize}
	}
	for label, ranges := range map[string][]DrawRange{"full": nil, "ranged": window} {
		t.Run(label, func(t *testing.T) {
			want, err := fixedNResult(t, o, du, ranges, 3, context.Background(), "")
			if err != nil {
				t.Fatal(err)
			}
			x := &execution{plan: du, ranges: ranges}
			if want.Injections() != x.plannedInjections() {
				t.Fatalf("tallied %d draws, want the planned %d", want.Injections(), x.plannedInjections())
			}
			wantBytes := resultBytes(t, want)
			for workers := 1; workers <= 4; workers++ {
				got, err := fixedNResult(t, o, du, ranges, workers, context.Background(), "")
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(resultBytes(t, got), wantBytes) {
					t.Fatalf("Result at %d workers differs from 3 workers", workers)
				}
			}

			ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
			tallied := want.Injections()
			for _, leg := range []struct {
				workers int
				after   int64 // experiments before this leg cancels
			}{{1, tallied / 3}, {4, tallied / 3}} {
				ctx, cancel := context.WithCancel(context.Background())
				ev := &cancellingEvaluator{Evaluator: o, n: leg.after, cancel: cancel}
				partial, err := fixedNResult(t, ev, du, ranges, leg.workers, ctx, ckpt)
				cancel()
				if !errors.Is(err, context.Canceled) || !partial.Partial {
					t.Fatalf("leg at %d workers: err = %v, partial = %v; want a cancelled partial run", leg.workers, err, partial.Partial)
				}
			}
			got, err := fixedNResult(t, o, du, ranges, 2, context.Background(), ckpt)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resultBytes(t, got), wantBytes) {
				t.Fatal("cancel at 1 worker, resume at 4, cancel, resume at 2 differs from the uninterrupted 3-worker run")
			}
		})
	}
}

// TestCheckpointResumesAtAnotherWorkerCount: checkpoints no longer bind
// to the worker count. A campaign interrupted at 2 workers resumes at 3
// to the uninterrupted bytes, re-evaluating no tallied draw.
func TestCheckpointResumesAtAnotherWorkerCount(t *testing.T) {
	o, _ := smallOracle(t)
	_, lw, _, _ := allApproachPlans(t)
	const seed = 7
	want := resultBytes(t, Run(o, lw, seed))
	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
	interruptWithCheckpoints(t, o, lw, seed, 2, ckpt)
	doc, err := readCheckpointDoc(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	before := o.EvalStats().Experiments()
	res, err := NewEngine(resumeOpts(ckpt, 3, nil)...).Execute(context.Background(), o, lw, seed)
	if err != nil {
		t.Fatalf("resume at 3 workers: %v", err)
	}
	if !bytes.Equal(resultBytes(t, res), want) {
		t.Error("resume at another worker count differs from the uninterrupted run")
	}
	if delta := o.EvalStats().Experiments() - before; delta != lw.TotalInjections()-doc.Injections {
		t.Errorf("resume ran %d experiments, want %d planned minus %d tallied", delta, lw.TotalInjections(), doc.Injections)
	}
}

// checkpointDocV2 is the version 2 on-disk layout, with the writing
// worker count in its original position (the CRC covers field order).
type checkpointDocV2 struct {
	Checksum    uint32              `json:"crc32,omitempty"`
	Version     int                 `json:"version"`
	Seed        int64               `json:"seed"`
	Fingerprint uint64              `json:"plan_fingerprint"`
	Workers     int                 `json:"workers"`
	Injections  int64               `json:"injections"`
	Strata      []checkpointStratum `json:"strata"`
}

// TestCheckpointV2Loads: a version 2 checkpoint, CRC and all, still
// resumes. Its worker count is ignored, and its cursors, which sit on
// the writing run's worker-derived shard boundaries rather than on the
// grid, resume to the uninterrupted bytes at any worker count.
func TestCheckpointV2Loads(t *testing.T) {
	o, _ := smallOracle(t)
	_, lw, _, _ := allApproachPlans(t)
	const seed = 7
	want := resultBytes(t, Run(o, lw, seed))

	// Off-grid prefixes, tallied by a ranged run over exactly them.
	cursors := []int64{1000, 777, 0, lw.Subpops[3].SampleSize}
	windows := make([]DrawRange, len(cursors))
	for i, c := range cursors {
		windows[i] = DrawRange{From: 0, To: c}
	}
	prefix := rangedResult(t, lw, seed, 1, windows)
	doc := checkpointDocV2{Version: 2, Seed: seed, Fingerprint: planFingerprint(lw), Workers: 7}
	for i, c := range cursors {
		doc.Injections += c
		doc.Strata = append(doc.Strata, checkpointStratum{Cursor: c, Successes: prefix.Estimates[i].Successes})
	}
	body, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	doc.Checksum = crc32.ChecksumIEEE(body)
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
		if err := os.WriteFile(ckpt, data, 0o644); err != nil {
			t.Fatal(err)
		}
		info, err := ReadCheckpointInfo(ckpt)
		if err != nil || info.Version != 2 || info.Injections != doc.Injections {
			t.Fatalf("ReadCheckpointInfo = %+v, %v; want version 2 with %d injections", info, err, doc.Injections)
		}
		before := o.EvalStats().Experiments()
		res, err := NewEngine(resumeOpts(ckpt, workers, nil)...).Execute(context.Background(), o, lw, seed)
		if err != nil {
			t.Fatalf("resume of a v2 checkpoint at %d workers: %v", workers, err)
		}
		if !bytes.Equal(resultBytes(t, res), want) {
			t.Errorf("v2 checkpoint resumed at %d workers differs from the uninterrupted run", workers)
		}
		if delta := o.EvalStats().Experiments() - before; delta != lw.TotalInjections()-doc.Injections {
			t.Errorf("resume at %d workers ran %d experiments, want %d", workers, delta, lw.TotalInjections()-doc.Injections)
		}
	}
}

// TestCheckpointStoppedStratumResumesToPlannedN: a version 3
// checkpoint that marks a stratum "stopped" (written by builds that had
// margin-based early stop) still passes the CRC check, and the stratum
// resumes to its planned n, so the Result is the bytes of an
// uninterrupted fixed-n run at the same (plan, seed).
func TestCheckpointStoppedStratumResumesToPlannedN(t *testing.T) {
	o, _ := smallOracle(t)
	_, lw, _, _ := allApproachPlans(t)
	const seed = 7
	want := resultBytes(t, Run(o, lw, seed))
	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
	interruptWithCheckpoints(t, o, lw, seed, 2, ckpt)
	doc, err := readCheckpointDoc(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	stopped := -1
	for i, cs := range doc.Strata {
		if cs.Cursor < lw.Subpops[i].SampleSize {
			stopped = i
			break
		}
	}
	if doc.Version != 3 || stopped < 0 {
		t.Fatalf("checkpoint version %d with no unfinished stratum; the test needs a mid-run v3 file", doc.Version)
	}

	// Re-serialize with "stopped": true on that stratum and the CRC
	// recomputed over the new bytes, as writeCheckpoint lays them out.
	doc.Checksum = 0
	body, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(body, []byte(`"strata":[`))
	for k := 0; k <= stopped; k++ {
		at += bytes.Index(body[at:], []byte(`{"cursor":`)) + 1
	}
	body = append(body[:at:at], append([]byte(`"stopped":true,`), body[at:]...)...)
	data := append(fmt.Appendf(nil, `{"crc32":%d,`, crc32.ChecksumIEEE(body)), body[1:]...)
	if err := os.WriteFile(ckpt, data, 0o644); err != nil {
		t.Fatal(err)
	}

	before := o.EvalStats().Experiments()
	res, err := NewEngine(resumeOpts(ckpt, 3, nil)...).Execute(context.Background(), o, lw, seed)
	if err != nil {
		t.Fatalf("resume of a checkpoint with a stopped stratum: %v", err)
	}
	if !bytes.Equal(resultBytes(t, res), want) {
		t.Error("stopped stratum did not resume to the uninterrupted fixed-n bytes")
	}
	if delta := o.EvalStats().Experiments() - before; delta != lw.TotalInjections()-doc.Injections {
		t.Errorf("resume ran %d experiments, want %d planned minus %d tallied", delta, lw.TotalInjections(), doc.Injections)
	}
}

// TestExecuteDrawMemoryIsBounded pins the streamed draw's memory. One
// Execute of ResNet-20's 640-stratum data-unaware oracle plan at 2
// workers draws 4.9M faults, 39 MB as int64 samples; the engine may
// allocate only a small fraction of that, because samples live in a
// few recycled shard buffers instead of one slice per stratum.
func TestExecuteDrawMemoryIsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("executes a 4.9M-draw campaign")
	}
	o := oracle.New(models.ResNet20(1), oracle.DefaultConfig(3))
	plan := PlanDataUnaware(o.Space(), stats.DefaultConfig())
	if len(plan.Subpops) != 640 {
		t.Fatalf("%d strata, want 640", len(plan.Subpops))
	}
	sampleBytes := 8 * plan.TotalInjections()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := NewEngine(WithWorkers(2)).Execute(context.Background(), o, plan, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if got, bound := int64(m1.TotalAlloc-m0.TotalAlloc), sampleBytes/16; got > bound {
		t.Errorf("Execute allocated %d bytes, want <= %d (1/16 of the %d sample bytes)", got, bound, sampleBytes)
	}
}
