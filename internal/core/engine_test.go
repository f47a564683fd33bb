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

// TestEngineMatchesRun: a plain engine run (no checkpoint, no early
// stop) must be bit-identical to the classic Run for every approach and
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
			if got.Partial || len(got.EarlyStopped) != 0 {
				t.Fatalf("%s: complete run marked partial/early-stopped", plan.Approach)
			}
		}
	}
}

// interruptAfter returns an engine option pair that cancels ctx once
// the campaign has tallied at least n injections.
func interruptAfter(cancel context.CancelFunc, n int64) []Option {
	var once sync.Once
	return []Option{
		WithProgressInterval(64),
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
		partial, err := NewEngine(WithWorkers(workers), WithCheckpoint(ckpt), WithCheckpointInterval(128)).
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
	partial, err := NewEngine(WithWorkers(workers), WithCheckpoint(ckpt), WithCheckpointInterval(64)).
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

// TestEngineEarlyStop: the margin-based early stop must (a) actually
// fire on strata whose observed criticality is far from the pessimistic
// planning p, (b) never stop before the achieved margin meets the
// target, and (c) stay deterministic at a fixed worker count.
func TestEngineEarlyStop(t *testing.T) {
	o, _ := smallOracle(t)
	_, lw, _, _ := allApproachPlans(t)
	cfg := lw.Config

	eng := NewEngine(WithWorkers(2), WithEarlyStop(0)) // target = plan's e
	res, err := eng.Execute(context.Background(), o, lw, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EarlyStopped) == 0 {
		t.Fatal("no stratum early-stopped; the oracle's low critical rates should beat the p=0.5 plan")
	}
	if res.Injections() >= lw.TotalInjections() {
		t.Error("early stop saved no injections")
	}
	stopped := make(map[int]bool, len(res.EarlyStopped))
	for _, i := range res.EarlyStopped {
		stopped[i] = true
	}
	for i, est := range res.Estimates {
		sub := lw.Subpops[i]
		if !stopped[i] {
			if est.SampleSize != sub.SampleSize {
				t.Errorf("stratum %d not stopped but n=%d of planned %d", i, est.SampleSize, sub.SampleSize)
			}
			continue
		}
		// Actual-n reported alongside planned-n.
		if est.SampleSize >= sub.SampleSize || est.SampleSize < earlyStopMinSample {
			t.Errorf("stratum %d: early-stop n=%d implausible (planned %d)", i, est.SampleSize, sub.SampleSize)
		}
		// Soundness: the achieved margin at the stop point meets the target.
		if m := cfg.ObservedMargin(est.PHat(), est.SampleSize, est.PopulationSize); m > cfg.ErrorMargin {
			t.Errorf("stratum %d stopped at margin %v > target %v", i, m, cfg.ErrorMargin)
		}
	}

	// Determinism: identical configuration ⇒ byte-identical result.
	again, err := NewEngine(WithWorkers(2), WithEarlyStop(0)).Execute(context.Background(), o, lw, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultBytes(t, res), resultBytes(t, again)) {
		t.Error("early-stopped campaign is not deterministic at fixed worker count")
	}

	// A looser explicit target must stop at or before the stricter one.
	loose, err := NewEngine(WithWorkers(2), WithEarlyStop(0.05)).Execute(context.Background(), o, lw, 9)
	if err != nil {
		t.Fatal(err)
	}
	if loose.Injections() > res.Injections() {
		t.Errorf("target 0.05 tallied %d > target %v's %d", loose.Injections(), cfg.ErrorMargin, res.Injections())
	}
}

// TestEngineEarlyStopRejectsBadTarget: targets outside [0, 1) fail fast.
func TestEngineEarlyStopRejectsBadTarget(t *testing.T) {
	o, _ := smallOracle(t)
	_, lw, _, _ := allApproachPlans(t)
	for _, target := range []float64{-0.1, 1, 2} {
		if _, err := NewEngine(WithEarlyStop(target)).Execute(context.Background(), o, lw, 1); err == nil {
			t.Errorf("early-stop target %v accepted", target)
		}
	}
}

// TestEngineDecodeValidationOption: WithDecodeValidation must enable the
// decode cross-check without touching process env, and the check may
// only verify, never alter the result.
func TestEngineDecodeValidationOption(t *testing.T) {
	if validateDecode {
		t.Skip("SFI_VALIDATE_DECODE set in environment")
	}
	o, _ := smallOracle(t)
	nw, _, _, da := allApproachPlans(t)
	for _, plan := range []*Plan{nw, da} {
		want := Run(o, plan, 2)
		got, err := NewEngine(WithWorkers(4), WithDecodeValidation(true)).
			Execute(context.Background(), o, plan, 2)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, plan.Approach.String()+"+option-validate", want, got)
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
		WithWorkers(2), WithCheckpoint(ckpt), WithCheckpointInterval(64))
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
	eng := NewEngine(WithWorkers(2), WithProgressInterval(256),
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

func sumSuccesses(r *Result) int64 {
	var total int64
	for _, e := range r.Estimates {
		total += e.Successes
	}
	return total
}

// TestEngineSerializePartialRoundTrip: partial and early-stopped results
// survive the JSON round trip with their new fields intact.
func TestEngineSerializePartialRoundTrip(t *testing.T) {
	o, _ := smallOracle(t)
	_, lw, _, _ := allApproachPlans(t)
	res, err := NewEngine(WithWorkers(2), WithEarlyStop(0.05)).Execute(context.Background(), o, lw, 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResultJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.EarlyStopped) != len(res.EarlyStopped) || back.Partial != res.Partial {
		t.Errorf("round trip lost engine fields: %+v vs %+v", back.EarlyStopped, res.EarlyStopped)
	}
	if back.Injections() != res.Injections() {
		t.Errorf("round trip changed tallies: %d vs %d", back.Injections(), res.Injections())
	}
}

// Guard the stats dependency the early stop builds on: planned sample
// sizes achieve the requested margin at the planning p, so a stratum can
// only stop early when the observed proportion is more extreme.
func TestEarlyStopNeverFiresAtPlanningP(t *testing.T) {
	cfg := stats.DefaultConfig()
	n := cfg.SampleSize(1_000_000)
	for k := int64(earlyStopMinSample); k < n; k += n / 17 {
		if cfg.ObservedMargin(cfg.P, k, 1_000_000) <= cfg.ErrorMargin {
			t.Fatalf("margin at planning p met target at n=%d < planned %d", k, n)
		}
	}
}
