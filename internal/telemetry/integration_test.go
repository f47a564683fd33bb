package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cnnsfi/internal/core"
	"cnnsfi/internal/models"
	"cnnsfi/internal/oracle"
	"cnnsfi/internal/stats"
)

// runTraced executes one seeded SmallCNN oracle campaign with a Tracer
// attached and returns the result plus the raw JSONL trace.
func runTraced(t *testing.T, workers int) (*core.Result, string) {
	t.Helper()
	net := models.SmallCNN(1)
	o := oracle.New(net, oracle.DefaultConfig(11))
	plan := core.PlanLayerWise(o.Space(), stats.SampleSizeConfig{
		ErrorMargin: 0.05, Confidence: 0.95, P: 0.5,
	})

	var buf bytes.Buffer
	tr := NewTracer(&buf, 256)
	eng := core.NewEngine(
		core.WithWorkers(workers),
		core.WithTrace(tr.Sink("smallcnn-lw")),
		core.WithProgress(tr.Progress("smallcnn-lw")),
	)
	res, err := eng.Execute(context.Background(), o, plan, 42)
	if err != nil {
		t.Fatalf("Execute(workers=%d): %v", workers, err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("tracer dropped %d events with an ample buffer", d)
	}
	return res, buf.String()
}

// TestTracedCampaignInvariants is the package's acceptance test: a
// seeded campaign traced at different worker counts yields bit-identical
// Results, every trace line round-trips through the typed schema, and
// the replayed summary's totals equal the campaign's final Progress
// counters.
func TestTracedCampaignInvariants(t *testing.T) {
	res1, trace1 := runTraced(t, 1)
	res3, trace3 := runTraced(t, 3)

	// Invariant 1: tracing must not perturb the campaign, and the
	// Result stays a pure function of (plan, seed) across worker counts.
	if !reflect.DeepEqual(res1, res3) {
		t.Fatalf("results differ across worker counts:\n1: %+v\n3: %+v", res1, res3)
	}

	for _, tc := range []struct {
		workers int
		res     *core.Result
		raw     string
	}{{1, res1, trace1}, {3, res3, trace3}} {
		t.Run(fmt.Sprintf("workers=%d", tc.workers), func(t *testing.T) {
			// Invariant 2: every line is valid JSONL that round-trips
			// byte-identically through the Event schema.
			for _, line := range strings.Split(strings.TrimSpace(tc.raw), "\n") {
				ev, err := ParseEvent([]byte(line))
				if err != nil {
					t.Fatal(err)
				}
				re, err := json.Marshal(ev)
				if err != nil {
					t.Fatal(err)
				}
				if string(re) != line {
					t.Fatalf("round trip mismatch:\n in: %s\nout: %s", line, re)
				}
			}

			events, err := ReadTrace(strings.NewReader(tc.raw))
			if err != nil {
				t.Fatal(err)
			}
			sum := Summarize(events)
			if len(sum.Campaigns) != 1 {
				t.Fatalf("campaigns = %d, want 1", len(sum.Campaigns))
			}
			c := sum.Campaigns[0]

			// Invariant 3: summary totals equal the final Progress
			// counters and the Result's tallies.
			if !c.Complete {
				t.Fatal("no campaign_end in trace")
			}
			if c.FinalProgress == nil {
				t.Fatal("no final progress event in trace")
			}
			if c.Done != c.FinalProgress.Done || c.Critical != c.FinalProgress.Critical {
				t.Errorf("campaign_end (done=%d critical=%d) != final progress (done=%d critical=%d)",
					c.Done, c.Critical, c.FinalProgress.Done, c.FinalProgress.Critical)
			}
			if got := tc.res.Injections(); c.Done != got {
				t.Errorf("summary done = %d, Result injections = %d", c.Done, got)
			}
			var critical int64
			for _, est := range tc.res.Estimates {
				critical += est.Successes
			}
			if c.Critical != critical {
				t.Errorf("summary critical = %d, Result criticals = %d", c.Critical, critical)
			}
			if c.Eval != c.FinalProgress.Eval() {
				t.Errorf("campaign_end eval %+v != final progress eval %+v", c.Eval, c.FinalProgress.Eval())
			}
			if got := c.Eval.Experiments(); got != c.Done {
				t.Errorf("eval experiments = %d, done = %d", got, c.Done)
			}

			// Identity binds the trace to the exact campaign.
			if c.Seed != 42 {
				t.Errorf("seed = %d, want 42", c.Seed)
			}
			if len(c.Fingerprint) != 16 {
				t.Errorf("fingerprint = %q, want 16 hex chars", c.Fingerprint)
			}
			if c.Workers != tc.workers {
				t.Errorf("workers = %d, want %d", c.Workers, tc.workers)
			}

			// Per-stratum lifecycle: every planned stratum started,
			// ended, and tallied exactly its planned draws.
			if len(c.Strata) != len(tc.res.Plan.Subpops) {
				t.Fatalf("strata = %d, want %d", len(c.Strata), len(tc.res.Plan.Subpops))
			}
			var stratumDone int64
			for _, st := range c.Strata {
				sub := tc.res.Plan.Subpops[st.Stratum]
				if st.Planned != sub.SampleSize || st.Layer != sub.Layer || st.Bit != sub.Bit {
					t.Errorf("stratum %d identity mismatch: %+v vs sub %+v", st.Stratum, st, sub)
				}
				if st.Done != tc.res.Estimates[st.Stratum].SampleSize {
					t.Errorf("stratum %d done = %d, estimate n = %d",
						st.Stratum, st.Done, tc.res.Estimates[st.Stratum].SampleSize)
				}
				if st.Shards < 1 {
					t.Errorf("stratum %d saw no shard_done events", st.Stratum)
				}
				stratumDone += st.Done
			}
			if stratumDone != c.Done {
				t.Errorf("sum of stratum done = %d, campaign done = %d", stratumDone, c.Done)
			}

			// Worker-assignment records cover exactly the worker pool.
			for w := range c.WorkerBusy {
				if w < 0 || w >= tc.workers {
					t.Errorf("shard_done from worker %d outside pool of %d", w, tc.workers)
				}
			}

			// The report renders without panicking in both modes and
			// the stripped mode carries the tallies.
			var rep strings.Builder
			sum.WriteReport(&rep, true)
			if !strings.Contains(rep.String(), "smallcnn-lw") {
				t.Error("report missing campaign label")
			}
			sum.WriteReport(&rep, false)
		})
	}
}
