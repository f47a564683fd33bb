package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cnnsfi/internal/faultmodel"
	"cnnsfi/internal/stats"
)

// resultBytes serializes a result the way callers persist it; byte
// equality of two results is the strongest identity the engine promises.
func resultBytes(t *testing.T, r *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEngineMatchesRun: a plain engine run (no checkpoint) must be
// bit-identical to the classic Run for every approach and
// worker count — the wrappers and the explicit API share one pipeline.
func TestEngineMatchesRun(t *testing.T) {
	o, _ := smallOracle(t)
	nw, lw, du, da := allApproachPlans(t)
	for _, plan := range []*Plan{nw, lw, du, da} {
		want := Run(o, plan, 11)
		for _, workers := range []int{1, 3} {
			eng := NewEngine(WithWorkers(workers))
			got, err := eng.Execute(context.Background(), o, plan, 11)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", plan.Approach, workers, err)
			}
			requireSameResult(t, plan.Approach.String(), want, got)
			if got.Partial {
				t.Fatalf("%s: complete run marked partial", plan.Approach)
			}
		}
	}
}

// interruptAfter returns an engine option pair that cancels ctx once
// the campaign has tallied at least n injections.
func interruptAfter(cancel context.CancelFunc, n int64) []Option {
	var once sync.Once
	return []Option{
		WithProgress(func(p Progress) {
			if p.Done >= n && !p.Final {
				once.Do(cancel)
			}
		}),
	}
}

// cancellingEvaluator cancels the campaign once n experiments have been
// evaluated. A progress-sink cancel (interruptAfter) fires only when the
// in-order merge reaches a point, and workers scheduled ahead of a slow
// first shard can finish the whole campaign before that; this cancel
// lands with at most one shard per worker in flight, so an interrupted
// run always leaves work to resume.
type cancellingEvaluator struct {
	Evaluator
	n      int64
	evals  atomic.Int64
	cancel context.CancelFunc
}

func (c *cancellingEvaluator) IsCritical(f faultmodel.Fault) bool {
	if c.evals.Add(1) == c.n {
		c.cancel()
	}
	return c.Evaluator.IsCritical(f)
}

// TestEngineCheckpointResumeBitIdentity is the acceptance criterion: a
// campaign killed mid-run (checkpoint written) then resumed must yield a
// Result byte-identical to the uninterrupted run at the same seed and
// worker count. Covers the network-wise shape (global stratum with
// per-layer slices) and both bit-granular plan shapes.
func TestEngineCheckpointResumeBitIdentity(t *testing.T) {
	o, _ := smallOracle(t)
	nw, lw, _, da := allApproachPlans(t)
	const seed, workers = 7, 4
	for _, plan := range []*Plan{nw, lw, da} {
		want := resultBytes(t, RunParallel(o, plan, seed, workers))

		ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
		ctx, cancel := context.WithCancel(context.Background())
		ev := &cancellingEvaluator{Evaluator: o, n: plan.TotalInjections() / 3, cancel: cancel}
		partial, err := NewEngine(WithWorkers(workers), WithCheckpoint(ckpt)).
			Execute(ctx, ev, plan, seed)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: interrupted run returned %v, want context.Canceled", plan.Approach, err)
		}
		if !partial.Partial {
			t.Fatalf("%s: interrupted result not marked partial", plan.Approach)
		}
		if partial.Injections() >= plan.TotalInjections() {
			t.Fatalf("%s: interruption left no work to resume", plan.Approach)
		}
		if _, err := os.Stat(ckpt); err != nil {
			t.Fatalf("%s: no checkpoint written on cancellation: %v", plan.Approach, err)
		}

		resumed, err := NewEngine(WithWorkers(workers), WithCheckpoint(ckpt), WithResume()).
			Execute(context.Background(), o, plan, seed)
		if err != nil {
			t.Fatalf("%s: resume failed: %v", plan.Approach, err)
		}
		if got := resultBytes(t, resumed); !bytes.Equal(got, want) {
			t.Errorf("%s: resumed result differs from uninterrupted run:\n got %s\nwant %s",
				plan.Approach, got, want)
		}
		if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
			t.Errorf("%s: checkpoint not removed after completed campaign", plan.Approach)
		}
	}
}

// TestEngineResumeSkipsTalliedWork: resuming must not re-evaluate the
// checkpointed prefix — the oracle's experiment counter over the resumed
// run plus the partial run must equal one full campaign (each draw
// evaluated exactly once across the two runs, minus the cancelled
// in-flight shards whose tallies were discarded).
func TestEngineResumeSkipsTalliedWork(t *testing.T) {
	o, _ := smallOracle(t)
	_, lw, _, _ := allApproachPlans(t)
	const seed, workers = 3, 2

	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	ev := &cancellingEvaluator{Evaluator: o, n: lw.TotalInjections() / 2, cancel: cancel}
	partial, err := NewEngine(WithWorkers(workers), WithCheckpoint(ckpt)).
		Execute(ctx, ev, lw, seed)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupt: %v", err)
	}

	resumed, err := NewEngine(WithWorkers(workers), WithCheckpoint(ckpt), WithResume()).
		Execute(context.Background(), o, lw, seed)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Injections() != lw.TotalInjections() {
		t.Fatalf("resumed campaign tallied %d of %d injections",
			resumed.Injections(), lw.TotalInjections())
	}
	// The resumed run must start from the checkpoint, not from zero: at
	// least the partial run's tallied prefix was skipped.
	if partial.Injections() == 0 {
		t.Fatal("partial run tallied nothing; interruption landed too early to test resume")
	}
}

// TestEngineCancelledBeforeDispatch: a context cancelled before any
// shard is handed out must yield a partial Result, context.Canceled and
// a kept checkpoint, never a complete Result with nothing tallied. The
// dispatcher must notice the cancellation before handing out the plan's
// one shard, whichever ready case its select would pick.
func TestEngineCancelledBeforeDispatch(t *testing.T) {
	o, _ := smallOracle(t)
	space := o.Space()
	plan := &Plan{Approach: LayerWise, Config: stats.DefaultConfig(), Space: space,
		Subpops: []Subpopulation{{Layer: 0, Bit: -1, Population: space.LayerTotal(0), P: 0.5, SampleSize: 1}}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 100; i++ {
		ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
		res, err := NewEngine(WithWorkers(1), WithCheckpoint(ckpt)).Execute(ctx, o, plan, int64(i))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: err = %v, want context.Canceled", i, err)
		}
		if !res.Partial || res.Injections() != 0 {
			t.Fatalf("run %d: partial=%v with %d injections, want a partial result with none", i, res.Partial, res.Injections())
		}
		if _, err := os.Stat(ckpt); err != nil {
			t.Fatalf("run %d: checkpoint of the cancelled run: %v", i, err)
		}
	}
}

// TestEngineCancelJoinsWorkers: cancellation mid-campaign returns a
// partial result and leaks no goroutines — every worker is joined before
// Execute returns.
func TestEngineCancelJoinsWorkers(t *testing.T) {
	o, _ := smallOracle(t)
	_, _, du, _ := allApproachPlans(t)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	opts := append(interruptAfter(cancel, du.TotalInjections()/4), WithWorkers(8))
	res, err := NewEngine(opts...).Execute(ctx, o, du, 5)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !res.Partial {
		t.Error("cancelled result not marked partial")
	}
	if n := res.Injections(); n <= 0 || n >= du.TotalInjections() {
		t.Errorf("partial tally %d outside (0, %d)", n, du.TotalInjections())
	}
	// Estimates must be internally consistent prefixes, never beyond plan.
	for i, est := range res.Estimates {
		if est.SampleSize > du.Subpops[i].SampleSize || est.Successes > est.SampleSize {
			t.Fatalf("stratum %d: inconsistent partial tally %+v", i, est)
		}
	}
	// Worker-join check: goroutine count must return to the pre-run
	// level (with slack for runtime background goroutines).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after cancellation", before, after)
	}
}

// TestEngineResumeRejectsMismatch: a checkpoint is bound to one exact
// (plan, seed); resuming anything else must fail loudly instead of
// silently producing statistics from mixed campaigns.
func TestEngineResumeRejectsMismatch(t *testing.T) {
	o, _ := smallOracle(t)
	_, lw, du, _ := allApproachPlans(t)
	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	opts := append(interruptAfter(cancel, lw.TotalInjections()/2),
		WithWorkers(2), WithCheckpoint(ckpt))
	if _, err := NewEngine(opts...).Execute(ctx, o, lw, 7); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupt: %v", err)
	}
	cancel()

	if _, err := NewEngine(WithCheckpoint(ckpt), WithResume()).
		Execute(context.Background(), o, lw, 8); err == nil {
		t.Error("resume with a different seed accepted")
	}
	if _, err := NewEngine(WithCheckpoint(ckpt), WithResume()).
		Execute(context.Background(), o, du, 7); err == nil {
		t.Error("resume with a different plan accepted")
	}
}

// TestEngineProgressEvents: the sink sees monotonically non-decreasing
// tallies, a final event, and totals consistent with the result.
func TestEngineProgressEvents(t *testing.T) {
	o, _ := smallOracle(t)
	_, lw, _, _ := allApproachPlans(t)
	var events []Progress
	eng := NewEngine(WithWorkers(2),
		WithProgress(func(p Progress) { events = append(events, p) }))
	res, err := eng.Execute(context.Background(), o, lw, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 {
		t.Fatalf("only %d progress events for a %d-injection campaign", len(events), lw.TotalInjections())
	}
	var prev int64 = -1
	for _, p := range events {
		if p.Done < prev {
			t.Fatalf("progress went backwards: %d after %d", p.Done, prev)
		}
		prev = p.Done
		if p.Planned != lw.TotalInjections() {
			t.Fatalf("event planned=%d, want %d", p.Planned, lw.TotalInjections())
		}
	}
	last := events[len(events)-1]
	if !last.Final {
		t.Error("no final progress event")
	}
	if last.Done != res.Injections() {
		t.Errorf("final event Done=%d, result tallied %d", last.Done, res.Injections())
	}
	if last.Critical != sumSuccesses(res) {
		t.Errorf("final event Critical=%d, result has %d", last.Critical, sumSuccesses(res))
	}
}

// TestProgressAtGridCadence: progress comes every grid spacing of
// tallied draws, so a campaign far below 10,000 draws reports while it
// runs. At one worker a 658-draw plan on a 16-draw grid must emit at
// least N/(2g) interior events (a stratum's last shard may be short, so
// an event can take two shards) and exactly one final event.
func TestProgressAtGridCadence(t *testing.T) {
	o, _ := smallOracle(t)
	cfg := stats.DefaultConfig()
	cfg.ErrorMargin = 0.1
	plan := PlanLayerWise(o.Space(), cfg)
	n, g := plan.TotalInjections(), shardGrid(plan)
	if n >= 10_000 || g*minGridCells > n {
		t.Fatalf("plan of %d draws on grid %d; the test needs a small plan cut into %d cells", n, g, minGridCells)
	}
	var interior, final int64
	eng := NewEngine(WithWorkers(1), WithProgress(func(p Progress) {
		if p.Final {
			final++
		} else {
			interior++
		}
	}))
	if _, err := eng.Execute(context.Background(), o, plan, 1); err != nil {
		t.Fatal(err)
	}
	if final != 1 {
		t.Errorf("%d final events, want 1", final)
	}
	if want := n / (2 * g); interior < want {
		t.Errorf("%d interior progress events for %d draws on grid %d, want at least %d", interior, n, g, want)
	}
}

func sumSuccesses(r *Result) int64 {
	var total int64
	for _, e := range r.Estimates {
		total += e.Successes
	}
	return total
}

// TestEngineSerializePartialRoundTrip: partial results survive the JSON
// round trip with their engine fields intact.
func TestEngineSerializePartialRoundTrip(t *testing.T) {
	o, _ := smallOracle(t)
	_, lw, _, _ := allApproachPlans(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ev := &cancellingEvaluator{Evaluator: o, n: lw.TotalInjections() / 2, cancel: cancel}
	res, err := NewEngine(WithWorkers(2)).Execute(ctx, ev, lw, 4)
	if !errors.Is(err, context.Canceled) || !res.Partial {
		t.Fatalf("err = %v, partial = %v; want a cancelled partial run", err, res.Partial)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResultJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Partial != res.Partial {
		t.Errorf("round trip lost Partial: %v vs %v", back.Partial, res.Partial)
	}
	if back.Injections() != res.Injections() {
		t.Errorf("round trip changed tallies: %d vs %d", back.Injections(), res.Injections())
	}
}
