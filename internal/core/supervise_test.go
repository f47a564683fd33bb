package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cnnsfi/internal/faultmodel"
)

// chaosMode selects how a victim fault misbehaves.
type chaosMode int

const (
	chaosPanic chaosMode = iota
	chaosHang
)

// chaosEvaluator wraps a healthy evaluator and injects failures for a
// fixed victim-fault set: a panic or a hang (longer than any watchdog
// deadline used in the tests). With once set, each victim fails exactly
// one time campaign-wide — the failure bookkeeping is shared across
// clones — so a retried experiment succeeds; without it, victims fail
// persistently and must end up quarantined.
type chaosEvaluator struct {
	inner   Evaluator
	victims map[faultmodel.Fault]chaosMode
	once    bool
	hang    time.Duration
	seen    *sync.Map     // fault -> already failed (shared across clones)
	clones  *atomic.Int64 // CloneForWorker calls (shared across clones)
}

func newChaosEvaluator(inner Evaluator, victims map[faultmodel.Fault]chaosMode, once bool) *chaosEvaluator {
	return &chaosEvaluator{
		inner:   inner,
		victims: victims,
		once:    once,
		hang:    time.Second,
		seen:    &sync.Map{},
		clones:  &atomic.Int64{},
	}
}

func (c *chaosEvaluator) Space() faultmodel.Space { return c.inner.Space() }

func (c *chaosEvaluator) IsCritical(f faultmodel.Fault) bool {
	if mode, ok := c.victims[f]; ok {
		fail := true
		if c.once {
			_, dup := c.seen.LoadOrStore(f, true)
			fail = !dup
		}
		if fail {
			switch mode {
			case chaosHang:
				// Outlive the watchdog, then fall through to a normal
				// verdict that lands in the abandoned lane's buffer.
				time.Sleep(c.hang)
			default:
				panic(fmt.Sprintf("chaos: injected panic for %s", f))
			}
		}
	}
	return c.inner.IsCritical(f)
}

// cloneableChaos adds the WorkerCloner seam: clones share the inner
// evaluator (the oracle is concurrency-safe) and the failure
// bookkeeping, so retry clones see the same chaos schedule.
type cloneableChaos struct{ chaosEvaluator }

func (c *cloneableChaos) CloneForWorker() Evaluator {
	c.clones.Add(1)
	cp := *c
	return &cp
}

// victimDraws decodes the faults at fixed (stratum, draw-offset)
// positions of the plan's seeded sample — victim identity is therefore
// a pure function of (plan, seed), like everything else in a campaign.
func victimDraws(t *testing.T, plan *Plan, space faultmodel.Space, seed int64, picks map[int][]int64) map[faultmodel.Fault]int64 {
	t.Helper()
	samples := drawnSamples(plan, seed)
	out := make(map[faultmodel.Fault]int64)
	for stratum, offs := range picks {
		if stratum >= len(plan.Subpops) {
			t.Fatalf("pick stratum %d outside plan (%d strata)", stratum, len(plan.Subpops))
		}
		sub := plan.Subpops[stratum]
		for _, off := range offs {
			if off >= int64(len(samples[stratum])) {
				t.Fatalf("pick draw %d outside stratum %d sample (%d draws)", off, stratum, len(samples[stratum]))
			}
			out[decodeFault(space, sub, samples[stratum][off])] = off
		}
	}
	return out
}

// TestSupervisedChaosBitIdentity is the headline acceptance criterion:
// an evaluator that panics or hangs once on a seeded subset of
// experiments, run under supervision, must produce a Result
// bit-identical to the unsupervised run on a healthy evaluator — at one
// worker and at four, with and without the WorkerCloner seam.
func TestSupervisedChaosBitIdentity(t *testing.T) {
	o, _ := smallOracle(t)
	_, lw, _, _ := allApproachPlans(t)
	const seed = 11
	want := resultBytes(t, Run(o, lw, seed))

	faults := victimDraws(t, lw, o.Space(), seed, map[int][]int64{
		0: {3, 101},
		1: {0, 57},
	})
	victims := make(map[faultmodel.Fault]chaosMode)
	i := 0
	for f := range faults {
		mode := chaosPanic
		if i%2 == 1 {
			mode = chaosHang // exercise the watchdog on half the victims
		}
		victims[f] = mode
		i++
	}

	for _, cloneable := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("cloneable=%v/workers=%d", cloneable, workers)
			chaos := newChaosEvaluator(o, victims, true)
			var ev Evaluator = chaos
			if cloneable {
				ev = &cloneableChaos{*chaos}
			}
			var finals []Progress
			var retryEvents, quarantineEvents int
			eng := NewEngine(
				WithWorkers(workers),
				WithMaxRetries(2),
				WithExperimentTimeout(100*time.Millisecond),
				WithProgress(func(p Progress) {
					if p.Final {
						finals = append(finals, p)
					}
				}),
				WithTrace(func(ev TraceEvent) {
					switch ev.Kind {
					case TraceExperimentRetry:
						retryEvents++
					case TraceExperimentQuarantined:
						quarantineEvents++
					}
				}),
			)
			res, err := eng.Execute(context.Background(), ev, lw, seed)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := resultBytes(t, res); !bytes.Equal(got, want) {
				t.Errorf("%s: supervised chaotic result differs from healthy unsupervised run:\n got %s\nwant %s",
					name, got, want)
			}
			if len(res.Quarantined) != 0 || quarantineEvents != 0 {
				t.Errorf("%s: transient failures were quarantined: %v", name, res.Quarantined)
			}
			// A loaded scheduler can time out an innocent experiment; its
			// retry recomputes the same verdict, so the Result is still
			// bit-identical — only the retry count has a lower bound.
			if retryEvents < len(victims) {
				t.Errorf("%s: %d experiment_retry events, want >= %d", name, retryEvents, len(victims))
			}
			if len(finals) != 1 || finals[0].Retries < int64(len(victims)) || finals[0].Quarantined != 0 {
				t.Errorf("%s: final progress %+v, want Retries>=%d Quarantined=0", name, finals, len(victims))
			}
			if finals[0].Done != lw.TotalInjections() {
				t.Errorf("%s: final Done = %d, want %d", name, finals[0].Done, lw.TotalInjections())
			}
			if cloneable {
				if n := chaos.clones.Load(); n == 0 {
					t.Errorf("%s: supervised retries never cloned the evaluator", name)
				}
			}
		}
	}
}

// TestSupervisedPersistentFailureQuarantines: victims that fail every
// attempt are quarantined deterministically (bit-identical Result across
// worker counts), excluded from the tally with the stratum margin
// recomputed over the reduced n, and the campaign ends cleanly.
func TestSupervisedPersistentFailureQuarantines(t *testing.T) {
	o, _ := smallOracle(t)
	_, lw, _, _ := allApproachPlans(t)
	const seed, retries = 11, 2
	healthy := Run(o, lw, seed)

	picks := map[int][]int64{0: {3, 101}, 2: {42}}
	faults := victimDraws(t, lw, o.Space(), seed, picks)
	victims := make(map[faultmodel.Fault]chaosMode)
	for f := range faults {
		victims[f] = chaosPanic
	}

	var prev []byte
	for _, workers := range []int{1, 4} {
		var warnings []string
		var finals []Progress
		eng := NewEngine(
			WithWorkers(workers),
			WithMaxRetries(retries),
			WithWarnings(func(msg string) { warnings = append(warnings, msg) }),
			WithProgress(func(p Progress) {
				if p.Final {
					finals = append(finals, p)
				}
			}),
		)
		res, err := eng.Execute(context.Background(), newChaosEvaluator(o, victims, false), lw, seed)
		if err != nil {
			t.Fatalf("workers=%d: persistent failures must not fail the campaign: %v", workers, err)
		}
		if res.Partial {
			t.Fatalf("workers=%d: clean end marked partial", workers)
		}

		got := resultBytes(t, res)
		if prev != nil && !bytes.Equal(got, prev) {
			t.Errorf("workers=%d: quarantined result differs from workers=1 run", workers)
		}
		prev = got

		if len(res.Quarantined) != len(faults) {
			t.Fatalf("workers=%d: %d quarantined, want %d: %v", workers, len(res.Quarantined), len(faults), res.Quarantined)
		}
		perStratum := map[int]int64{}
		for i, q := range res.Quarantined {
			perStratum[q.Stratum]++
			if q.Attempts != retries+1 {
				t.Errorf("quarantine %d: %d attempts, want %d", i, q.Attempts, retries+1)
			}
			if q.Fault == "" || !strings.Contains(q.Err, "panicked") {
				t.Errorf("quarantine %d lost its identity: %+v", i, q)
			}
			if i > 0 {
				p := res.Quarantined[i-1]
				if q.Stratum < p.Stratum || (q.Stratum == p.Stratum && q.Index <= p.Index) {
					t.Errorf("Result.Quarantined not sorted: %+v before %+v", p, q)
				}
			}
		}
		for stratum, offs := range picks {
			if perStratum[stratum] != int64(len(offs)) {
				t.Errorf("stratum %d: %d quarantined, want %d", stratum, perStratum[stratum], len(offs))
			}
		}

		cfg := lw.Config
		for i, est := range res.Estimates {
			k := perStratum[i]
			if est.SampleSize != lw.Subpops[i].SampleSize-k {
				t.Errorf("stratum %d: effective n %d, want %d-%d", i, est.SampleSize, lw.Subpops[i].SampleSize, k)
			}
			if k == 0 {
				if est != healthy.Estimates[i] {
					t.Errorf("untouched stratum %d diverged from the healthy run", i)
				}
				continue
			}
			// The reported margin must be the inflated one of the reduced
			// sample: strictly above the same tally spread back over the
			// planned n.
			full := est
			full.SampleSize += k
			if est.Margin(cfg) <= full.Margin(cfg) {
				t.Errorf("stratum %d: margin %v over n=%d not inflated vs %v over planned n=%d",
					i, est.Margin(cfg), est.SampleSize, full.Margin(cfg), full.SampleSize)
			}
		}

		if len(finals) != 1 || finals[0].Quarantined != int64(len(faults)) {
			t.Errorf("workers=%d: final progress %+v, want Quarantined=%d", workers, finals, len(faults))
		}
		// Done counts consumed draw positions, including quarantined ones.
		if finals[0].Done != lw.TotalInjections() {
			t.Errorf("workers=%d: final Done = %d, want %d", workers, finals[0].Done, lw.TotalInjections())
		}
		if res.Injections() != lw.TotalInjections()-int64(len(faults)) {
			t.Errorf("workers=%d: Injections() = %d, want planned minus quarantined %d",
				workers, res.Injections(), lw.TotalInjections()-int64(len(faults)))
		}
		if len(warnings) != len(faults) {
			t.Errorf("workers=%d: %d quarantine warnings, want %d: %q", workers, len(warnings), len(faults), warnings)
		}
	}
}

// TestSupervisedZeroRetriesQuarantinesFirstFailure: WithMaxRetries(0)
// gives pure panic isolation — no retry, straight to quarantine — and
// still never crashes the campaign.
func TestSupervisedZeroRetriesQuarantinesFirstFailure(t *testing.T) {
	o, _ := smallOracle(t)
	_, lw, _, _ := allApproachPlans(t)
	const seed = 5
	faults := victimDraws(t, lw, o.Space(), seed, map[int][]int64{1: {7}})
	victims := make(map[faultmodel.Fault]chaosMode)
	for f := range faults {
		victims[f] = chaosPanic
	}
	var warned int
	res, err := NewEngine(WithWorkers(2), WithMaxRetries(0), WithWarnings(func(string) { warned++ })).
		Execute(context.Background(), newChaosEvaluator(o, victims, false), lw, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 1 || res.Quarantined[0].Attempts != 1 {
		t.Fatalf("quarantined = %+v, want one single-attempt record", res.Quarantined)
	}
	if warned != 1 {
		t.Errorf("warnings = %d, want 1", warned)
	}
}

// TestEngineRejectsNegativeExperimentTimeout pins the input validation.
func TestEngineRejectsNegativeExperimentTimeout(t *testing.T) {
	o, _ := smallOracle(t)
	_, lw, _, _ := allApproachPlans(t)
	_, err := NewEngine(WithExperimentTimeout(-time.Second)).Execute(context.Background(), o, lw, 1)
	if err == nil || !strings.Contains(err.Error(), "experiment timeout") {
		t.Fatalf("err = %v, want negative-timeout rejection", err)
	}
}

// TestWatchdogAbandonedLanesGauge pins the abandoned-lane accounting
// that makes the PR 5 goroutine leak observable: a timed-out experiment
// raises WatchdogAbandonedLanes by one for as long as its lane
// goroutine is pinned by the hung call, and the gauge falls back once
// the call finally returns and the goroutine exits. Cleanly released
// lanes (worker shutdown) must never move the gauge. Assertions are
// deltas against a base snapshot — the counter is process-wide.
func TestWatchdogAbandonedLanesGauge(t *testing.T) {
	// An earlier test's abandoned lane (a chaos hang lasts a second) may
	// still be pinned and exit at any moment, moving the gauge under this
	// test. Wait until every such lane has exited before taking the base.
	settle := time.Now().Add(10 * time.Second)
	for WatchdogAbandonedLanes() != 0 {
		if time.Now().After(settle) {
			t.Fatalf("gauge still %d: an earlier abandoned lane never exited", WatchdogAbandonedLanes())
		}
		time.Sleep(time.Millisecond)
	}
	base := WatchdogAbandonedLanes()
	sup := &supervisor{timeout: 20 * time.Millisecond}

	// A clean lifecycle first: fast experiment, then worker shutdown.
	w := &supWorker{sup: sup}
	if v := w.attempt(func(Evaluator) verdict { return verdict{decoded: true} }); v.failed() {
		t.Fatalf("fast experiment failed: %+v", v)
	}
	w.close()
	if got := WatchdogAbandonedLanes() - base; got != 0 {
		t.Fatalf("gauge delta = %d after a clean lane release, want 0", got)
	}

	// Now a hung experiment: the watchdog abandons the lane and the
	// gauge must show the pinned goroutine until the hang is released.
	release := make(chan struct{})
	w = &supWorker{sup: sup}
	v := w.attempt(func(Evaluator) verdict {
		<-release
		return verdict{decoded: true}
	})
	if !v.timedOut {
		t.Fatalf("verdict = %+v, want a watchdog timeout", v)
	}
	if got := WatchdogAbandonedLanes() - base; got < 1 {
		t.Fatalf("gauge delta = %d while an abandoned experiment hangs, want >= 1", got)
	}

	close(release) // the hung call returns; the abandoned goroutine exits
	deadline := time.Now().Add(5 * time.Second)
	for WatchdogAbandonedLanes()-base != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("gauge delta still %d after the hang was released", WatchdogAbandonedLanes()-base)
		}
		time.Sleep(time.Millisecond)
	}
}
