package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cnnsfi/internal/faultmodel"
	"cnnsfi/internal/oracle"
)

// checkpointEveryMerge lowers checkpointPeriod to zero for the rest of
// the test, so every merged shard writes a periodic checkpoint.
func checkpointEveryMerge(t *testing.T) {
	t.Helper()
	old := checkpointPeriod
	checkpointPeriod = 0
	t.Cleanup(func() { checkpointPeriod = old })
}

// interruptWithCheckpoints cancels a checkpointed campaign halfway
// through and requires that both checkpoint generations (primary and
// rotated .bak) were left behind for the recovery tests to chew on.
func interruptWithCheckpoints(t *testing.T, o *oracle.Oracle, plan *Plan, seed int64, workers int, ckpt string) {
	t.Helper()
	checkpointEveryMerge(t)
	ctx, cancel := context.WithCancel(context.Background())
	opts := append(interruptAfter(cancel, plan.TotalInjections()/2),
		WithWorkers(workers), WithCheckpoint(ckpt))
	if _, err := NewEngine(opts...).Execute(ctx, o, plan, seed); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupt: %v", err)
	}
	cancel()
	for _, p := range []string{ckpt, ckpt + checkpointBackupSuffix} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("interrupted campaign left no %s: %v", p, err)
		}
	}
}

// TestCheckpointPeriod: periodic checkpoints follow the wall clock, so
// a campaign far shorter than checkpointPeriod writes only its on-abort
// checkpoint and leaves no backup. (With the period lowered, the
// recovery tests' interruptWithCheckpoints requires both generations.)
func TestCheckpointPeriod(t *testing.T) {
	o, _ := smallOracle(t)
	_, lw, _, _ := allApproachPlans(t)
	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
	writes := 0
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := append(interruptAfter(cancel, lw.TotalInjections()/2),
		WithWorkers(2), WithCheckpoint(ckpt),
		WithTrace(func(ev TraceEvent) {
			if ev.Kind == TraceCheckpoint {
				writes++
			}
		}))
	if _, err := NewEngine(opts...).Execute(ctx, o, lw, 7); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupt: %v", err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("interrupted campaign left no checkpoint: %v", err)
	}
	if writes != 1 {
		t.Errorf("%d checkpoint writes, want only the on-abort one", writes)
	}
	if _, err := os.Stat(ckpt + checkpointBackupSuffix); !os.IsNotExist(err) {
		t.Errorf("a single write left a backup: %v", err)
	}
}

// resumeOpts is the matching resume configuration at the given worker
// count (any count resumes: cursors sit on the plan's shard grid).
func resumeOpts(ckpt string, workers int, warn func(string)) []Option {
	return []Option{WithWorkers(workers), WithCheckpoint(ckpt), WithResume(), WithWarnings(warn)}
}

// TestCheckpointRecoveryFromBackup is the crash-safety acceptance
// criterion: a primary checkpoint destroyed in three different ways
// (truncated mid-file, silently bit-flipped, deleted) must resume from
// the rotated .bak with a one-line warning, reproduce the uninterrupted
// campaign bit-identically, and re-evaluate no draw already tallied in
// the backup.
func TestCheckpointRecoveryFromBackup(t *testing.T) {
	o, _ := smallOracle(t)
	_, lw, _, _ := allApproachPlans(t)
	const seed, workers = 7, 2
	want := resultBytes(t, Run(o, lw, seed))

	corruptions := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit_flipped", func(t *testing.T, path string) {
			// Change one tally digit: still valid JSON, so only the CRC
			// can notice.
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			i := bytes.Index(data, []byte(`"injections":`)) + len(`"injections":`)
			data[i] = '0' + ('9' - data[i])
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"missing_primary", func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
			interruptWithCheckpoints(t, o, lw, seed, workers, ckpt)

			// The backup is one checkpoint generation behind the primary;
			// its tally is the floor the resumed run must not re-evaluate.
			bak, err := readCheckpointDoc(ckpt + checkpointBackupSuffix)
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, ckpt)

			var warnings []string
			before := o.EvalStats().Experiments()
			res, err := NewEngine(resumeOpts(ckpt, workers, func(msg string) { warnings = append(warnings, msg) })...).
				Execute(context.Background(), o, lw, seed)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if got := resultBytes(t, res); !bytes.Equal(got, want) {
				t.Error("backup-recovered campaign differs from the uninterrupted run")
			}
			if len(warnings) != 1 || !strings.Contains(warnings[0], checkpointBackupSuffix) {
				t.Errorf("warnings = %q, want one line pointing at the %s backup", warnings, checkpointBackupSuffix)
			}
			if delta := o.EvalStats().Experiments() - before; delta != lw.TotalInjections()-bak.Injections {
				t.Errorf("resume ran %d experiments, want planned %d minus the backup's %d tallied",
					delta, lw.TotalInjections(), bak.Injections)
			}
			// Completion must clear both generations.
			for _, p := range []string{ckpt, ckpt + checkpointBackupSuffix} {
				if _, err := os.Stat(p); !os.IsNotExist(err) {
					t.Errorf("%s survived campaign completion", p)
				}
			}
		})
	}
}

// TestCheckpointCorruptBothGenerations: with the backup gone too, the
// corruption must surface as an ErrCheckpointCorrupt resume failure, not
// a silent fresh start that re-runs half the campaign.
func TestCheckpointCorruptBothGenerations(t *testing.T) {
	o, _ := smallOracle(t)
	_, lw, _, _ := allApproachPlans(t)
	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
	interruptWithCheckpoints(t, o, lw, 7, 2, ckpt)
	for _, p := range []string{ckpt, ckpt + checkpointBackupSuffix} {
		if err := os.WriteFile(p, []byte(`{"version":`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := NewEngine(resumeOpts(ckpt, 2, nil)...).Execute(context.Background(), o, lw, 7)
	if !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("err = %v, want ErrCheckpointCorrupt", err)
	}
}

// TestCheckpointMismatchSentinels: every mismatch class carries its
// errors.Is-able sentinel, and none of them falls back to the backup —
// the backup belongs to the same campaign and would fail identically.
func TestCheckpointMismatchSentinels(t *testing.T) {
	o, _ := smallOracle(t)
	_, lw, du, _ := allApproachPlans(t)
	const seed, workers = 7, 2

	cases := []struct {
		name     string
		tamper   func(t *testing.T, ckpt string)
		plan     *Plan
		seed     int64
		workers  int
		sentinel error
	}{
		{"seed", nil, lw, seed + 1, workers, ErrCheckpointSeed},
		{"plan", nil, du, seed, workers, ErrCheckpointPlan},
		{"version", func(t *testing.T, ckpt string) {
			rewriteCheckpointDoc(t, ckpt, func(doc *checkpointDoc) { doc.Version = 99 })
		}, lw, seed, workers, ErrCheckpointVersion},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
			interruptWithCheckpoints(t, o, lw, seed, workers, ckpt)
			if tc.tamper != nil {
				tc.tamper(t, ckpt)
			}
			var warnings []string
			_, err := NewEngine(resumeOpts(ckpt, tc.workers, func(msg string) { warnings = append(warnings, msg) })...).
				Execute(context.Background(), o, tc.plan, tc.seed)
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("err = %v, want %v", err, tc.sentinel)
			}
			if len(warnings) != 0 {
				t.Errorf("mismatch fell back to the backup: %q", warnings)
			}
		})
	}
}

// rewriteCheckpointDoc edits one field of an on-disk checkpoint and
// clears the CRC — a zero checksum is the documented legacy escape
// hatch, so the tampered document still parses cleanly and exercises the
// validation under test rather than the CRC.
func rewriteCheckpointDoc(t *testing.T, path string, edit func(*checkpointDoc)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc checkpointDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	edit(&doc)
	doc.Checksum = 0
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointLegacyZeroChecksumAccepted pins the compatibility
// contract: a document without a CRC (checksum zero) loads as long as
// its contents validate.
func TestCheckpointLegacyZeroChecksumAccepted(t *testing.T) {
	o, _ := smallOracle(t)
	_, lw, _, _ := allApproachPlans(t)
	const seed, workers = 7, 2
	want := resultBytes(t, Run(o, lw, seed))

	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
	interruptWithCheckpoints(t, o, lw, seed, workers, ckpt)
	rewriteCheckpointDoc(t, ckpt, func(*checkpointDoc) {})

	res, err := NewEngine(resumeOpts(ckpt, workers, nil)...).Execute(context.Background(), o, lw, seed)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := resultBytes(t, res); !bytes.Equal(got, want) {
		t.Error("legacy checkpoint resume differs from the uninterrupted run")
	}
}

// TestCheckpointQuarantineRoundTrip: an interrupted supervised campaign
// persists its quarantine records and retry tally; the resumed run
// carries them into the final Result instead of resurrecting the
// quarantined draws.
func TestCheckpointQuarantineRoundTrip(t *testing.T) {
	o, _ := smallOracle(t)
	_, lw, _, _ := allApproachPlans(t)
	const seed, workers, retries = 11, 2, 1

	picks := map[int][]int64{0: {3, 101}, 2: {42}}
	faults := victimDraws(t, lw, o.Space(), seed, picks)
	victims := make(map[faultmodel.Fault]chaosMode)
	for f := range faults {
		victims[f] = chaosPanic
	}
	newEv := func() Evaluator { return newChaosEvaluator(o, victims, false) }

	// Uninterrupted supervised baseline.
	base, err := NewEngine(WithWorkers(workers), WithMaxRetries(retries)).
		Execute(context.Background(), newEv(), lw, seed)
	if err != nil {
		t.Fatal(err)
	}
	want := resultBytes(t, base)

	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	opts := append(interruptAfter(cancel, lw.TotalInjections()/2),
		WithWorkers(workers), WithMaxRetries(retries),
		WithCheckpoint(ckpt))
	if _, err := NewEngine(opts...).Execute(ctx, newEv(), lw, seed); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupt: %v", err)
	}
	cancel()

	doc, err := readCheckpointDoc(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Quarantined) == 0 {
		t.Fatal("interrupted supervised campaign checkpointed no quarantine records; move the victim picks earlier")
	}

	res, err := NewEngine(WithWorkers(workers), WithMaxRetries(retries),
		WithCheckpoint(ckpt), WithResume()).
		Execute(context.Background(), newEv(), lw, seed)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := resultBytes(t, res); !bytes.Equal(got, want) {
		t.Error("resumed supervised campaign differs from the uninterrupted supervised run")
	}
	if len(res.Quarantined) != len(faults) {
		t.Errorf("resumed run reports %d quarantined, want %d", len(res.Quarantined), len(faults))
	}
}
