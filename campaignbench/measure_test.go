package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"cnnsfi/internal/faultmodel"
)

func TestMedianAndPercentile(t *testing.T) {
	cases := []struct {
		xs      []float64
		p, want float64
		wantMed float64
	}{
		{nil, 90, 0, 0},
		{[]float64{7}, 90, 7, 7},
		{[]float64{3, 1, 2}, 50, 2, 2},
		{[]float64{4, 1, 3, 2}, 50, 2.5, 2.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 90, 10, 6},
		{[]float64{10, 20}, 25, 12.5, 15},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
		if got := median(c.xs); math.Abs(got-c.wantMed) > 1e-12 {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.wantMed)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// TestSummarizeTail pins the tail rule: the reported percentile is the
// highest one with at least ten samples beyond it, and none is reported
// below eleven samples.
func TestSummarizeTail(t *testing.T) {
	for _, n := range []int{0, 1, 10} {
		xs := make([]float64, n)
		if s := summarize(xs); s.TailOK || s.N != n {
			t.Errorf("n=%d: got %+v, want no tail", n, s)
		}
	}
	for _, tc := range []struct {
		n       int
		tail    float64
		tailPct float64
	}{
		{11, 1, 100.0 / 11},
		{20, 10, 50},
		{40, 30, 75},
		{100, 90, 90},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[tc.n-1-i] = float64(i + 1) // descending: summarize must sort
		}
		s := summarize(xs)
		if !s.TailOK || s.Tail != tc.tail || math.Abs(s.TailPct-tc.tailPct) > 1e-9 || s.N != tc.n {
			t.Errorf("n=%d: got %+v, want tail %v at p%v", tc.n, s, tc.tail, tc.tailPct)
		}
		beyond := 0
		for _, x := range xs {
			if x > s.Tail {
				beyond++
			}
		}
		if beyond != tailSamples {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, tailSamples)
		}
	}
	if s := summarize([]float64{1, 2, 3}).String(); !strings.Contains(s, "n=3") || !strings.Contains(s, "no tail") {
		t.Errorf("String() = %q", s)
	}
}

func TestTallyCountsEveryOutcomeAgainstAttempts(t *testing.T) {
	var tl tally
	for _, o := range []outcome{opOK, opOK, opFailed, opRefused, opMismatched, opMismatched} {
		tl.record(o)
	}
	if tl.attempted != 6 || tl.failed != 1 || tl.refused != 1 || tl.mismatched != 2 || tl.bad() != 4 {
		t.Errorf("tally = %+v (bad %d)", tl, tl.bad())
	}
}

func TestJudge(t *testing.T) {
	ref := [][32]byte{{1}, {2}}
	passes := []pass{
		{sums: [][32]byte{{1}, {2}}, errs: []error{nil, nil}},
		{sums: [][32]byte{{1}, {9}}, errs: []error{nil, nil}},
		{sums: [][32]byte{{0}, {2}}, errs: []error{errTest, nil}},
	}
	var tl tally
	judge(&tl, passes, ref)
	if tl.attempted != 6 || tl.mismatched != 1 || tl.failed != 1 || tl.bad() != 2 {
		t.Errorf("judge tally = %+v", tl)
	}
}

var errTest = errors.New("test")

// TestVerdictTableMatchesGlobalIndex checks the table's indexing against
// the fault space's own global enumeration, and the exhaustive fill.
func TestVerdictTableMatchesGlobalIndex(t *testing.T) {
	space := faultmodel.NewStuckAt([]int{3, 70, 5}, 32)
	table, err := newVerdictTable(space)
	if err != nil {
		t.Fatal(err)
	}
	for g := int64(0); g < space.Total(); g++ {
		f := space.GlobalFault(g)
		if got := table.index(f); got != g {
			t.Fatalf("index(%v) = %d, want %d", f, got, g)
		}
	}
	critical := func(f faultmodel.Fault) bool { return (f.Param+f.Bit+int(f.Model))%3 == 0 }
	table.fillExhaustive(func(int) func(faultmodel.Fault) bool { return critical })
	ev := newLookupEvaluator(table)
	clone := ev.CloneForWorker()
	for g := int64(0); g < space.Total(); g++ {
		f := space.GlobalFault(g)
		var got bool
		if g%2 == 0 {
			got = ev.IsCritical(f)
		} else {
			got = clone.IsCritical(f)
		}
		if got != critical(f) {
			t.Fatalf("lookup %v = %v, want %v", f, got, critical(f))
		}
	}
	if n := ev.totalCalls(); n != space.Total() {
		t.Errorf("totalCalls = %d, want %d", n, space.Total())
	}
	if _, err := newVerdictTable(faultmodel.NewBitFlip([]int{3}, 32)); err == nil {
		t.Error("bit-flip space accepted")
	}
}

// maskOdd is a stand-in evaluator: faults on odd parameters are masked.
type maskOdd struct{ space faultmodel.Space }

func (m maskOdd) Space() faultmodel.Space            { return m.space }
func (m maskOdd) IsCritical(f faultmodel.Fault) bool { time.Sleep(time.Microsecond); return f.Bit == 0 }
func (m maskOdd) Masked(f faultmodel.Fault) bool     { return f.Param%2 == 1 }

func TestTimedEvaluatorAttributesCallsPerLayer(t *testing.T) {
	space := faultmodel.NewStuckAt([]int{4, 2}, 32)
	t0 := time.Now()
	ev := newTimedEvaluator(maskOdd{space}, t0, true, true)
	clone := ev.CloneForWorker().(*timedEvaluator)
	faults := []faultmodel.Fault{
		{Layer: 0, Param: 0, Bit: 0}, {Layer: 0, Param: 1, Bit: 3}, {Layer: 1, Param: 0, Bit: 5},
	}
	for _, f := range faults {
		if ev.IsCritical(f) != (f.Bit == 0) {
			t.Fatal("verdict not forwarded")
		}
	}
	clone.IsCritical(faultmodel.Fault{Layer: 1, Param: 1, Bit: 0})
	got := ev.collect()
	if got.layers[0].calls != 2 || got.layers[0].masked != 1 || got.layers[1].calls != 2 || got.layers[1].masked != 1 {
		t.Errorf("layer costs = %+v", got.layers)
	}
	if len(got.spans) != 2 || len(got.verdicts) != 4 {
		t.Errorf("%d spans (want 2 unmasked), %d verdicts (want 4)", len(got.spans), len(got.verdicts))
	}
	if got.busyNs <= 0 || got.layers[0].unmaskedNs <= 0 || got.layers[0].unmaskedNs > got.layers[0].allNs {
		t.Errorf("timings = busy %d, layer0 %+v", got.busyNs, got.layers[0])
	}
	for _, s := range got.spans {
		if s.end < s.start || s.start < 0 {
			t.Errorf("span %+v out of order", s)
		}
	}
	if again := ev.collect(); again.layers[0].calls != 0 || len(again.spans) != 0 {
		t.Errorf("collect did not reset: %+v", again)
	}
}

func TestSelfTime(t *testing.T) {
	l := newSpanLog("r", time.Now())
	l.spans = []span{
		{ID: 0, Parent: -1, Name: "workload", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "campaign", Start: 10, End: 60},
		{ID: 2, Parent: 1, Name: "experiment", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "experiment", Start: 20, End: 40}, // overlaps: another worker
		{ID: 4, Parent: 1, Name: "experiment", Start: 55, End: 70}, // runs past its parent
	}
	want := map[string][2]int64{ // name -> total, self
		"workload":   {100, 50},
		"campaign":   {50, 50 - 30 - 5},
		"experiment": {20 + 20 + 15, 55},
	}
	for _, r := range l.selfTimes() {
		if w := want[r.Name]; r.TotalNs != w[0] || r.SelfNs != w[1] {
			t.Errorf("%s: total %d self %d, want %v", r.Name, r.TotalNs, r.SelfNs, w)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps the repository's BENCHMARK.json
// and the metrics this program reports in step: same names, same units,
// same order.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, doc.Workloads[i].Name, w.name)
		}
	}
}
