package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"cnnsfi/internal/evalstats"
	"cnnsfi/internal/report"
)

// StratumSummary is one stratum's replayed lifecycle.
type StratumSummary struct {
	Stratum, Layer, Bit int
	Planned             int64
	Done                int64
	Critical            int64
	Shards              int
	Dur                 time.Duration
	// Retried / Quarantined count the stratum's experiment_retry and
	// experiment_quarantined events (supervised campaigns only).
	Retried     int64
	Quarantined int64
}

// CampaignSummary aggregates every event of one labelled campaign.
type CampaignSummary struct {
	Campaign    string
	Seed        int64
	Fingerprint string
	Workers     int
	Planned     int64
	Restored    int64
	NumStrata   int

	// Done/Critical/Rate/Partial/Eval come from the campaign_end event;
	// Complete is false when the trace has none (e.g. a crashed run), in
	// which case they hold the last observed values instead.
	Complete bool
	Done     int64
	Critical int64
	Elapsed  time.Duration
	Rate     float64
	Partial  bool
	Eval     evalstats.EvalStats
	// Retries / Quarantined are the campaign-wide supervision tallies
	// (zero on unsupervised or healthy campaigns).
	Retries     int64
	Quarantined int64

	Checkpoints int
	ShardsDone  int
	Strata      []*StratumSummary
	// WorkerBusy sums each worker's shard evaluation wall time — busy
	// time over campaign Elapsed is that worker's utilization.
	WorkerBusy map[int]time.Duration

	// FinalProgress is the campaign's final progress event, when the
	// trace recorded progress (nil otherwise). Its counters must agree
	// with the campaign_end tallies — the cross-check the trace tests
	// and `sfitrace` rely on.
	FinalProgress *Event
}

// Summary is a replayed trace: campaigns in first-seen order plus
// tracer-level bookkeeping.
type Summary struct {
	Campaigns []*CampaignSummary
	// Dropped is the lost-event count from the trace's "drops" record
	// (0 for a complete trace).
	Dropped int64
	// Events is the total number of trace lines consumed.
	Events int
}

// maxTraceLine bounds a single JSONL trace line. Quarantine events
// embed rendered panic values and checkpoint events embed paths, so a
// line can far exceed bufio.Scanner's 64KB default; 16MB is orders of
// magnitude above any event the schema can produce while still bounding
// a corrupt newline-free file.
const maxTraceLine = 16 << 20

// ReadTrace parses a JSONL trace stream strictly (every line must
// round-trip through the Event schema; see ParseEvent). Blank lines are
// permitted.
func ReadTrace(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxTraceLine)
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		ev, err := ParseEvent(sc.Bytes())
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return events, nil
}

// Summarize replays a trace into per-campaign summaries. It is tolerant
// of truncated traces (campaigns without an end event report
// Complete=false with the last observed tallies).
func Summarize(events []Event) *Summary {
	s := &Summary{Events: len(events)}
	byName := map[string]*CampaignSummary{}
	campaign := func(name string) *CampaignSummary {
		c := byName[name]
		if c == nil {
			c = &CampaignSummary{Campaign: name, WorkerBusy: map[int]time.Duration{}}
			byName[name] = c
			s.Campaigns = append(s.Campaigns, c)
		}
		return c
	}
	stratum := func(c *CampaignSummary, ev Event) *StratumSummary {
		for _, st := range c.Strata {
			if st.Stratum == ev.Stratum {
				return st
			}
		}
		st := &StratumSummary{Stratum: ev.Stratum, Layer: ev.Layer, Bit: ev.Bit}
		c.Strata = append(c.Strata, st)
		return st
	}
	for i := range events {
		ev := events[i]
		if ev.Kind == KindDrops {
			s.Dropped += ev.Dropped
			continue
		}
		c := campaign(ev.Campaign)
		switch ev.Kind {
		case "campaign_start":
			c.Seed = ev.Seed
			c.Fingerprint = ev.Fingerprint
			c.Workers = ev.Workers
			c.Planned = ev.Planned
			c.Restored = ev.Restored
			c.NumStrata = ev.Strata
		case "stratum_start":
			st := stratum(c, ev)
			st.Planned = ev.StratumPlanned
			st.Done = ev.Done // restored prefix; overwritten at stratum_end
		case "shard_done":
			c.ShardsDone++
			c.WorkerBusy[ev.Worker] += time.Duration(ev.DurNS)
			stratum(c, ev).Shards++
		case "experiment_retry":
			stratum(c, ev).Retried++
		case "experiment_quarantined":
			stratum(c, ev).Quarantined++
		case "stratum_end":
			st := stratum(c, ev)
			st.Layer = ev.Layer
			st.Bit = ev.Bit
			st.Planned = ev.StratumPlanned
			st.Done = ev.Done
			st.Critical = ev.Critical
			st.Dur = time.Duration(ev.DurNS)
		case "checkpoint":
			c.Checkpoints++
		case KindPartMeta:
			// Correlation prologue of a federated part (or a spliced
			// merged trace): identity only, nothing to tally.
		case "campaign_end":
			c.Complete = true
			c.Done = ev.Done
			c.Critical = ev.Critical
			c.Elapsed = time.Duration(ev.ElapsedNS)
			c.Rate = ev.Rate
			c.Partial = ev.Partial
			c.Retries = ev.Retries
			c.Quarantined = ev.Quarantined
			c.Eval = ev.Eval()
		case KindProgress:
			if ev.Final {
				c.FinalProgress = &events[i]
			}
			if !c.Complete {
				c.Done = ev.Done
				c.Critical = ev.Critical
				c.Elapsed = time.Duration(ev.ElapsedNS)
				c.Retries = ev.Retries
				c.Quarantined = ev.Quarantined
			}
		}
	}
	for _, c := range s.Campaigns {
		sort.Slice(c.Strata, func(i, j int) bool { return c.Strata[i].Stratum < c.Strata[j].Stratum })
	}
	return s
}

// WriteReport renders the summary as a human-readable report. With
// stripTiming set, wall-clock durations, rates, and scheduling detail
// (shard and checkpoint counts, arena levels, worker utilization, the
// event total) render as "-" or are omitted, so the output is a
// deterministic function of (plan, seed) alone — identical across
// worker counts and across a federated split versus a single-node run.
// That invariance is what the golden tests, `make trace-smoke`, and the
// federation-smoke merged-trace diff all rely on.
func (s *Summary) WriteReport(w io.Writer, stripTiming bool) {
	dur := func(d time.Duration) string {
		if stripTiming {
			return "-"
		}
		return d.Round(time.Microsecond).String()
	}
	count := func(n int) string {
		if stripTiming {
			return "-"
		}
		return strconv.Itoa(n)
	}
	for _, c := range s.Campaigns {
		// The worker count is scheduling detail too: stripping it keeps
		// the report identical across worker counts and fleet shapes.
		fmt.Fprintf(w, "campaign %q — seed %d, fingerprint %s, workers %s\n",
			c.Campaign, c.Seed, c.Fingerprint, count(c.Workers))
		status := "complete"
		switch {
		case !c.Complete:
			status = "truncated trace (no campaign_end)"
		case c.Partial:
			status = "partial (cancelled)"
		}
		fmt.Fprintf(w, "  status: %s\n", status)
		fmt.Fprintf(w, "  injections: %s done / %s planned (%s restored from checkpoint)\n",
			report.Comma(c.Done), report.Comma(c.Planned), report.Comma(c.Restored))
		pct := "n/a"
		if c.Done > 0 {
			pct = report.Pct(float64(c.Critical) / float64(c.Done))
		}
		fmt.Fprintf(w, "  critical: %s (%s)\n", report.Comma(c.Critical), pct)
		// Arena bytes is a level, not a tally: it reflects worker count
		// and shard geometry, so the stripped report hides it.
		arena := report.Comma(c.Eval.ArenaBytes)
		if stripTiming {
			arena = "-"
		}
		fmt.Fprintf(w, "  eval: %s masked skips, %s evaluated, %s early exits, %s arena bytes\n",
			report.Comma(c.Eval.Skipped), report.Comma(c.Eval.Evaluated),
			report.Comma(c.Eval.EarlyExits), arena)
		if stripTiming {
			fmt.Fprintf(w, "  wall: -, rate: - inj/s\n")
		} else {
			fmt.Fprintf(w, "  wall: %s, rate: %.0f inj/s\n", dur(c.Elapsed), c.Rate)
		}
		fmt.Fprintf(w, "  strata: %d planned; %s shards, %s checkpoints\n",
			c.NumStrata, count(c.ShardsDone), count(c.Checkpoints))
		// Rendered only for supervised campaigns that actually retried or
		// quarantined work, so healthy-campaign goldens stay byte-stable.
		if c.Retries > 0 || c.Quarantined > 0 {
			fmt.Fprintf(w, "  supervision: %s failed attempts retried, %s draws quarantined (excluded from the tally)\n",
				report.Comma(c.Retries), report.Comma(c.Quarantined))
		}

		if len(c.Strata) > 0 {
			t := report.NewTable("", "stratum", "layer", "bit", "planned", "done", "critical", "shards", "wall", "note")
			for _, st := range c.Strata {
				note := ""
				if st.Quarantined > 0 {
					note = fmt.Sprintf("%d quarantined (margin over reduced n)", st.Quarantined)
				}
				t.AddRow(st.Stratum, st.Layer, st.Bit, st.Planned, st.Done, st.Critical, count(st.Shards), dur(st.Dur), note)
			}
			t.Render(w)
		}

		// Which workers existed and how busy they were is pure
		// scheduling detail; the stripped report omits the whole block.
		if len(c.WorkerBusy) > 0 && !stripTiming {
			workers := make([]int, 0, len(c.WorkerBusy))
			for wk := range c.WorkerBusy {
				workers = append(workers, wk)
			}
			sort.Ints(workers)
			fmt.Fprintf(w, "  worker utilization (busy evaluating / campaign wall):\n")
			for _, wk := range workers {
				util := 0.0
				if c.Elapsed > 0 {
					util = float64(c.WorkerBusy[wk]) / float64(c.Elapsed)
				}
				fmt.Fprintf(w, "    worker %d: busy %s (%s)\n", wk, dur(c.WorkerBusy[wk]), report.Pct(util))
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%s events", count(s.Events))
	if s.Dropped > 0 {
		fmt.Fprintf(w, ", %d DROPPED (trace is incomplete)", s.Dropped)
	}
	fmt.Fprintln(w)
}
