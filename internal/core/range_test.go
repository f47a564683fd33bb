package core

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"testing"
)

// rangedResult executes the plan's [From, To) windows and fails the test
// on error.
func rangedResult(t *testing.T, plan *Plan, seed int64, workers int, ranges []DrawRange, extra ...Option) *Result {
	t.Helper()
	o, _ := smallOracle(t)
	opts := append([]Option{WithWorkers(workers), WithDrawRanges(ranges)}, extra...)
	res, err := NewEngine(opts...).Execute(context.Background(), o, plan, seed)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// fullWindows builds the WithDrawRanges vector covering every stratum in
// full — semantically the whole campaign, expressed as a range run.
func fullWindows(plan *Plan) []DrawRange {
	ranges := make([]DrawRange, len(plan.Subpops))
	for i, sub := range plan.Subpops {
		ranges[i] = DrawRange{From: 0, To: sub.SampleSize}
	}
	return ranges
}

// TestDrawRangeValidation: malformed WithDrawRanges vectors must be
// rejected before any evaluation.
func TestDrawRangeValidation(t *testing.T) {
	o, _ := smallOracle(t)
	_, lw, _, _ := allApproachPlans(t)
	n := lw.Subpops[0].SampleSize
	bad := map[string][]DrawRange{
		"wrong stratum count": {{From: 0, To: 1}},
		"negative from":       append([]DrawRange{{From: -1, To: 1}}, fullWindows(lw)[1:]...),
		"from beyond to":      append([]DrawRange{{From: 2, To: 1}}, fullWindows(lw)[1:]...),
		"to beyond sample":    append([]DrawRange{{From: 0, To: n + 1}}, fullWindows(lw)[1:]...),
	}
	for label, ranges := range bad {
		eng := NewEngine(WithWorkers(1), WithDrawRanges(ranges))
		if _, err := eng.Execute(context.Background(), o, lw, 3); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
}

// TestDrawRangeEmptyWindows: an all-empty range vector is a valid no-op
// campaign — zero draws tallied, nothing partial.
func TestDrawRangeEmptyWindows(t *testing.T) {
	_, lw, _, _ := allApproachPlans(t)
	empty := make([]DrawRange, len(lw.Subpops))
	for i := range empty {
		empty[i] = DrawRange{From: lw.Subpops[i].SampleSize / 2, To: lw.Subpops[i].SampleSize / 2}
	}
	res := rangedResult(t, lw, 3, 2, empty)
	if res.Partial {
		t.Fatal("empty-window run marked partial")
	}
	if got := res.Injections(); got != 0 {
		t.Fatalf("empty windows tallied %d draws", got)
	}
	for i, est := range res.Estimates {
		if est.SampleSize != 0 || est.Successes != 0 {
			t.Fatalf("stratum %d: non-zero tally %+v from an empty window", i, est)
		}
	}
}

// TestDrawRangeFullWindowMatchesFullRun: a range run covering every
// stratum in full must tally exactly what the unranged run tallies — the
// only difference in the Result is the recorded Ranges vector.
func TestDrawRangeFullWindowMatchesFullRun(t *testing.T) {
	o, _ := smallOracle(t)
	for _, plan := range func() []*Plan { nw, lw, du, da := allApproachPlans(t); return []*Plan{nw, lw, du, da} }() {
		full, err := NewEngine(WithWorkers(4)).Execute(context.Background(), o, plan, 5)
		if err != nil {
			t.Fatal(err)
		}
		ranged := rangedResult(t, plan, 5, 4, fullWindows(plan))
		if ranged.Ranges == nil {
			t.Fatalf("%s: ranged run did not record its windows", plan.Approach)
		}
		ranged.Ranges = nil // the windows are the one legitimate difference
		if !bytes.Equal(resultBytes(t, full), resultBytes(t, ranged)) {
			t.Fatalf("%s: full-window range run diverges from the full run", plan.Approach)
		}
	}
}

// TestDrawRangeSplitMergeBitIdentity is the federation anchor at the
// engine level: SplitPlan into 1/2/3 parts, execute each window as its
// own campaign (at 1 and 4 workers), and MergeRangeResults must
// reproduce the single-node Result byte-for-byte.
func TestDrawRangeSplitMergeBitIdentity(t *testing.T) {
	o, _ := smallOracle(t)
	_, lw, _, da := allApproachPlans(t)
	for _, plan := range []*Plan{lw, da} {
		want, err := NewEngine(WithWorkers(1)).Execute(context.Background(), o, plan, 11)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes := resultBytes(t, want)
		for _, members := range []int{1, 2, 3} {
			for _, workers := range []int{1, 4} {
				parts, err := SplitPlan(plan, members)
				if err != nil {
					t.Fatal(err)
				}
				results := make([]*Result, members)
				for k, ranges := range parts {
					results[k] = rangedResult(t, plan, 11, workers, ranges)
				}
				merged, err := MergeRangeResults(plan, results)
				if err != nil {
					t.Fatalf("%s members=%d workers=%d: merge: %v", plan.Approach, members, workers, err)
				}
				if !bytes.Equal(wantBytes, resultBytes(t, merged)) {
					t.Fatalf("%s members=%d workers=%d: merged result diverges from single-node run",
						plan.Approach, members, workers)
				}
			}
		}
	}
}

// TestDrawRangeCheckpointResume: a ranged campaign killed mid-window and
// resumed from its checkpoint must yield a Result byte-identical to the
// uninterrupted ranged run — a member daemon restart costs zero
// correctness.
func TestDrawRangeCheckpointResume(t *testing.T) {
	o, _ := smallOracle(t)
	_, lw, _, _ := allApproachPlans(t)
	parts, err := SplitPlan(lw, 2)
	if err != nil {
		t.Fatal(err)
	}
	ranges := parts[1] // the second half: every window starts mid-stratum
	want := rangedResult(t, lw, 7, 2, ranges)

	ckpt := filepath.Join(t.TempDir(), "range.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := append([]Option{
		WithWorkers(2), WithDrawRanges(ranges),
		WithCheckpoint(ckpt),
	}, interruptAfter(cancel, 128)...)
	partial, err := NewEngine(opts...).Execute(ctx, o, lw, 7)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	if !partial.Partial {
		t.Fatal("interrupted ranged run not marked partial")
	}

	// The checkpoint binds to its windows: resuming with different
	// windows — or as a full run — must fail with ErrCheckpointRange.
	// (Checked before the legitimate resume, which removes the file.)
	for label, eng := range map[string]*Engine{
		"other windows": NewEngine(WithWorkers(2), WithDrawRanges(parts[0]), WithCheckpoint(ckpt), WithResume()),
		"full run":      NewEngine(WithWorkers(2), WithCheckpoint(ckpt), WithResume()),
	} {
		if _, err := eng.Execute(context.Background(), o, lw, 7); !errors.Is(err, ErrCheckpointRange) {
			t.Errorf("%s resume of a ranged checkpoint: err = %v, want ErrCheckpointRange", label, err)
		}
	}

	resumed, err := NewEngine(WithWorkers(2), WithDrawRanges(ranges), WithCheckpoint(ckpt), WithResume()).
		Execute(context.Background(), o, lw, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultBytes(t, want), resultBytes(t, resumed)) {
		t.Fatal("resumed ranged run diverges from the uninterrupted ranged run")
	}
}

// TestMergeRangeResultsErrors: the merge must reject anything that is
// not an in-order gap-free tiling of complete parts of the same plan.
func TestMergeRangeResultsErrors(t *testing.T) {
	_, lw, du, _ := allApproachPlans(t)
	parts, err := SplitPlan(lw, 2)
	if err != nil {
		t.Fatal(err)
	}
	first := rangedResult(t, lw, 13, 1, parts[0])
	second := rangedResult(t, lw, 13, 1, parts[1])

	cases := map[string]struct {
		plan  *Plan
		parts []*Result
	}{
		"no parts":       {lw, nil},
		"out of order":   {lw, []*Result{second, first}},
		"gap":            {lw, []*Result{second}},
		"double-tally":   {lw, []*Result{first, first, second}},
		"short coverage": {lw, []*Result{first}},
		"wrong plan":     {du, []*Result{first, second}},
		"partial part":   {lw, []*Result{first, {Plan: lw, Partial: true}}},
	}
	for label, tc := range cases {
		if _, err := MergeRangeResults(tc.plan, tc.parts); err == nil {
			t.Errorf("%s: merged", label)
		}
	}

	// Sanity: the well-formed tiling still merges.
	if _, err := MergeRangeResults(lw, []*Result{first, second}); err != nil {
		t.Fatalf("well-formed tiling rejected: %v", err)
	}
}

// TestSplitPlanWindows: SplitPlan must tile every stratum contiguously
// with window sizes differing by at most one draw, including n larger
// than a stratum's sample (empty windows).
func TestSplitPlanWindows(t *testing.T) {
	_, lw, _, _ := allApproachPlans(t)
	if _, err := SplitPlan(lw, 0); err == nil {
		t.Error("SplitPlan accepted n=0")
	}
	if _, err := SplitPlan(nil, 2); err == nil {
		t.Error("SplitPlan accepted a nil plan")
	}
	for _, n := range []int{1, 2, 3, 7, 10000} {
		parts, err := SplitPlan(lw, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) != n {
			t.Fatalf("n=%d: %d parts", n, len(parts))
		}
		for i, sub := range lw.Subpops {
			var cursor int64
			minLen, maxLen := sub.SampleSize, int64(0)
			for k := range parts {
				r := parts[k][i]
				if r.From != cursor {
					t.Fatalf("n=%d stratum %d part %d: window starts at %d, cursor %d", n, i, k, r.From, cursor)
				}
				cursor = r.To
				if l := r.Len(); l < minLen {
					minLen = l
				} else if l > maxLen {
					maxLen = l
				}
			}
			if cursor != sub.SampleSize {
				t.Fatalf("n=%d stratum %d: windows cover [0, %d) of %d", n, i, cursor, sub.SampleSize)
			}
			if maxLen-minLen > 1 && minLen != sub.SampleSize {
				t.Fatalf("n=%d stratum %d: window sizes spread [%d, %d]", n, i, minLen, maxLen)
			}
		}
	}
}
