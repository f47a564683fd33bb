package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"cnnsfi/internal/core"
)

// TestReadTraceHugeLine is the regression test for the bufio.Scanner
// default 64KB line cap: a quarantine event embedding a megabyte-scale
// rendered panic value must survive the trace round trip instead of
// failing with bufio.ErrTooLong.
func TestReadTraceHugeLine(t *testing.T) {
	hugeErr := strings.Repeat("stack frame / ", 1<<17) // ~1.8MB, well past 64KB
	events := []Event{
		FromTrace("big", core.TraceEvent{
			Kind: core.TraceCampaignStart, Time: time.Unix(0, 1), Seed: 7, Workers: 1,
		}),
		FromTrace("big", core.TraceEvent{
			Kind: core.TraceExperimentQuarantined, Time: time.Unix(0, 2),
			Stratum: 0, Draw: 3, Fault: "L0.w1.b30.sa1", Attempts: 3, Err: hugeErr,
		}),
	}
	var buf bytes.Buffer
	for _, ev := range events {
		line, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind == "experiment_quarantined" && len(line) <= 64*1024 {
			t.Fatalf("test line only %d bytes; below the scanner default this test must exceed", len(line))
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}

	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace choked on a long line: %v", err)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events, want %d", len(got), len(events))
	}
	if got[1].Error != hugeErr {
		t.Errorf("huge error field did not round-trip (%d bytes back, want %d)", len(got[1].Error), len(hugeErr))
	}
}

// TestSummarizeSupervision replays a synthetic supervised trace: retry
// and quarantine events land in the per-stratum tallies, the
// campaign_end totals surface on the summary, and the report renders
// the supervision lines (which stay absent for healthy campaigns, so
// the existing goldens cannot cover them).
func TestSummarizeSupervision(t *testing.T) {
	mk := func(kind core.TraceKind, stratum int, draw int64) Event {
		return FromTrace("sup", core.TraceEvent{
			Kind: kind, Time: time.Unix(0, 1), Stratum: stratum, Draw: draw,
			Fault: "L0.w1.b30.sa1", Attempts: 2, Err: "experiment panicked on attempt 2: boom",
		})
	}
	events := []Event{
		FromTrace("sup", core.TraceEvent{Kind: core.TraceCampaignStart, Time: time.Unix(0, 1), Planned: 100, Strata: 2}),
		mk(core.TraceExperimentRetry, 0, 3),
		mk(core.TraceExperimentRetry, 1, 9),
		mk(core.TraceExperimentQuarantined, 1, 9),
		FromTrace("sup", core.TraceEvent{
			Kind: core.TraceCampaignEnd, Time: time.Unix(0, 2),
			Done: 99, Critical: 4, Retries: 3, Quarantined: 1,
		}),
	}
	sum := Summarize(events)
	if len(sum.Campaigns) != 1 {
		t.Fatalf("campaigns = %d, want 1", len(sum.Campaigns))
	}
	c := sum.Campaigns[0]
	if c.Retries != 3 || c.Quarantined != 1 {
		t.Errorf("campaign tallies retries=%d quarantined=%d, want 3/1", c.Retries, c.Quarantined)
	}
	byStratum := map[int]*StratumSummary{}
	for _, st := range c.Strata {
		byStratum[st.Stratum] = st
	}
	if st := byStratum[0]; st == nil || st.Retried != 1 || st.Quarantined != 0 {
		t.Errorf("stratum 0 summary = %+v, want Retried=1 Quarantined=0", st)
	}
	if st := byStratum[1]; st == nil || st.Retried != 1 || st.Quarantined != 1 {
		t.Errorf("stratum 1 summary = %+v, want Retried=1 Quarantined=1", st)
	}

	var rep bytes.Buffer
	sum.WriteReport(&rep, true)
	out := rep.String()
	if !strings.Contains(out, "supervision: 3 failed attempts retried, 1 draws quarantined") {
		t.Errorf("report missing supervision line:\n%s", out)
	}
	if !strings.Contains(out, "1 quarantined (margin over reduced n)") {
		t.Errorf("report missing per-stratum quarantine note:\n%s", out)
	}
}

// TestSummarizeSupervisionFromProgressFallback: a truncated trace (no
// campaign_end) must still carry the last observed supervision tallies.
func TestSummarizeSupervisionFromProgressFallback(t *testing.T) {
	events := []Event{
		FromTrace("trunc", core.TraceEvent{Kind: core.TraceCampaignStart, Time: time.Unix(0, 1), Planned: 100}),
		FromProgress("trunc", core.Progress{Done: 50, Planned: 100, Retries: 2, Quarantined: 1}),
	}
	c := Summarize(events).Campaigns[0]
	if c.Complete {
		t.Fatal("truncated trace reported complete")
	}
	if c.Retries != 2 || c.Quarantined != 1 {
		t.Errorf("fallback tallies retries=%d quarantined=%d, want 2/1", c.Retries, c.Quarantined)
	}
}

// TestSummarizeFlagsShortCampaigns pins the done-against-planned check:
// a complete, uncancelled campaign that tallied fewer draws than it
// planned, or a stratum_end short of its planned n, is flagged in the
// summary and the report; a cancelled campaign is not, and neither is a
// federated part trace whose strata end at their windows' ends.
func TestSummarizeFlagsShortCampaigns(t *testing.T) {
	campaign := func(name string, planned, done int64, partial bool, strata [][2]int64, ranges []core.DrawRange) []Event {
		start := NewEvent("campaign_start")
		start.Campaign, start.Planned, start.Strata = name, planned, len(strata)
		evs := []Event{start}
		if ranges != nil {
			evs = append(evs, PartMeta(name, "j000001", 0, "m1", ranges))
		}
		for i, st := range strata {
			end := NewEvent("stratum_end")
			end.Campaign, end.Stratum, end.StratumPlanned, end.Done = name, i, st[0], st[1]
			evs = append(evs, end)
		}
		end := NewEvent("campaign_end")
		end.Campaign, end.Planned, end.Done, end.Partial = name, planned, done, partial
		return append(evs, end)
	}
	var events []Event
	events = append(events, campaign("whole", 600, 600, false, [][2]int64{{400, 400}, {200, 200}}, nil)...)
	events = append(events, campaign("short", 600, 550, false, [][2]int64{{400, 350}, {200, 200}}, nil)...)
	events = append(events, campaign("cancelled", 600, 350, true, [][2]int64{{400, 350}}, nil)...)
	events = append(events, campaign("part", 250, 250, false, [][2]int64{{400, 200}, {300, 150}},
		[]core.DrawRange{{From: 0, To: 200}, {From: 100, To: 150}})...)

	sum := Summarize(events)
	want := map[string][]bool{ // campaign short, then each stratum's
		"whole":     {false, false, false},
		"short":     {true, true, false},
		"cancelled": {false, true},
		"part":      {false, false, false},
	}
	for _, c := range sum.Campaigns {
		got := []bool{c.Short()}
		for _, st := range c.Strata {
			got = append(got, st.Short())
		}
		if w := want[c.Campaign]; fmt.Sprint(got) != fmt.Sprint(w) {
			t.Errorf("campaign %q: short flags %v, want %v", c.Campaign, got, w)
		}
	}

	var buf bytes.Buffer
	sum.WriteReport(&buf, true)
	report := buf.String()
	for _, s := range []string{
		"status: SHORT: complete, but 550 of 600 planned draws tallied",
		"SHORT: ended at 350 of 400",
		"status: partial (cancelled)",
	} {
		if !strings.Contains(report, s) {
			t.Errorf("report lacks %q:\n%s", s, report)
		}
	}
	if n := strings.Count(report, "status: complete"); n != 2 {
		t.Errorf("report has %d complete campaigns, want 2 (whole and part):\n%s", n, report)
	}
}
