package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cnnsfi/internal/core"
	"cnnsfi/internal/telemetry"
	"cnnsfi/sfi"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runCLI drives the whole CLI in-process, capturing both streams.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(context.Background(), args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestCLIFlagValidation pins the one-line actionable error for every
// rejected input: exit code 1, a single "sfirun: ..." line on stderr,
// nothing on stdout.
func TestCLIFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"negative_workers", []string{"-workers", "-1"}},
		{"margin_out_of_range", []string{"-margin", "2"}},
		{"confidence_out_of_range", []string{"-confidence", "0"}},
		{"resume_without_checkpoint", []string{"-resume"}},
		{"negative_timeout", []string{"-timeout", "-1s"}},
		{"zero_images", []string{"-images", "0"}},
		{"zero_replicas", []string{"-replicas", "0"}},
		{"unknown_model", []string{"-model", "nosuch"}},
		{"unknown_substrate", []string{"-model", "smallcnn", "-substrate", "fpga"}},
		{"inference_needs_smallcnn", []string{"-model", "resnet20", "-substrate", "inference"}},
		{"fig6_layer_out_of_range", []string{"-model", "smallcnn", "-margin", "0.05", "-fig6", "-layer", "99"}},
		{"trace_summary_without_trace", []string{"-trace-summary"}},
		{"negative_experiment_timeout", []string{"-experiment-timeout", "-1s"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(t, tc.args...)
			if code != 1 {
				t.Fatalf("exit code = %d, want 1 (stderr: %q)", code, stderr)
			}
			if stdout != "" {
				t.Errorf("stdout not empty: %q", stdout)
			}
			// Drop diagnostics that precede validation of campaign flags
			// (the oracle-enumeration notice for the fig6 case).
			line := stderr
			if i := strings.LastIndex(strings.TrimSuffix(stderr, "\n"), "\n"); i >= 0 {
				line = stderr[i+1:]
			}
			if !strings.HasPrefix(line, "sfirun: ") || strings.Count(line, "\n") != 1 {
				t.Errorf("want a single 'sfirun: ...' line, got %q", stderr)
			}
			checkGolden(t, "err_"+tc.name+".golden", line)
		})
	}
}

// TestCLIBadFlagSyntax: the flag package rejects malformed values itself
// (exit 2, usage on stderr) — the CLI must not panic or proceed.
func TestCLIBadFlagSyntax(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-margin", "lots")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if stdout != "" {
		t.Errorf("stdout not empty: %q", stdout)
	}
	if !strings.Contains(stderr, "invalid value") {
		t.Errorf("stderr missing flag error: %q", stderr)
	}
}

// TestCLICheckpointHints pins the actionable one-liner each checkpoint
// failure sentinel earns: the raw engine error followed by one
// "sfirun: ..." hint telling the user how to get unstuck. Checkpoint
// documents are crafted against the real plan fingerprint, so each case
// trips exactly the validation under test.
func TestCLICheckpointHints(t *testing.T) {
	net, err := sfi.BuildModel("smallcnn", 1)
	if err != nil {
		t.Fatal(err)
	}
	o := sfi.NewOracle(net, sfi.OracleDefaults(3))
	cfg := sfi.DefaultConfig()
	cfg.ErrorMargin = 0.05
	fp := core.PlanFingerprint(sfi.PlanNetworkWise(o.Space(), cfg))

	// A zero crc32 is the documented no-checksum escape hatch, so these
	// hand-written documents parse cleanly and reach the validation.
	doc := func(version int, seed int64, fingerprint uint64) string {
		return fmt.Sprintf(`{"version":%d,"seed":%d,"plan_fingerprint":%d,"injections":0,"strata":[]}`,
			version, seed, fingerprint)
	}
	cases := []struct {
		name string
		doc  string
	}{
		{"seed", doc(3, 999, fp)},
		{"version", doc(99, 0, fp)},
		{"plan", doc(3, 0, 1)},
		{"corrupt", `{"version":`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prefix := filepath.Join(t.TempDir(), "ck")
			if err := os.WriteFile(prefix+".network-wise.ckpt", []byte(tc.doc), 0o644); err != nil {
				t.Fatal(err)
			}
			code, stdout, stderr := runCLI(t,
				"-model", "smallcnn", "-substrate", "oracle", "-margin", "0.05",
				"-workers", "1", "-checkpoint", prefix, "-resume", "-table3")
			if code != 1 {
				t.Fatalf("exit code = %d, want 1 (stderr: %q)", code, stderr)
			}
			if stdout != "" {
				t.Errorf("stdout not empty: %q", stdout)
			}
			var lines []string
			for _, line := range strings.Split(stderr, "\n") {
				if strings.HasPrefix(line, "sfirun: ") {
					lines = append(lines, line)
				}
			}
			got := strings.Join(lines, "\n") + "\n"
			got = strings.ReplaceAll(got, prefix, "<ckpt>")
			got = fingerprintRe.ReplaceAllString(got, "<fp>")
			checkGolden(t, "hint_checkpoint_"+tc.name+".golden", got)
		})
	}
}

var (
	rateRe        = regexp.MustCompile(`\d[\d,]*(\.\d+)? inj/s`)
	elapsedRe     = regexp.MustCompile(`in \S+ \(`)
	fingerprintRe = regexp.MustCompile(`[0-9a-f]{16}`)
)

// normalizeTiming strips wall-clock-dependent fields (elapsed time,
// injections/sec) from progress output so the rest stays goldenable.
func normalizeTiming(s string) string {
	s = rateRe.ReplaceAllString(s, "RATE inj/s")
	return elapsedRe.ReplaceAllString(s, "in ELAPSED (")
}

// TestCLITable3Golden pins the full -table3 run on the oracle substrate
// at -workers 1: the Table III artifact on stdout byte-for-byte, and the
// progress stream on stderr — including the final lines' masked-skip /
// evaluated counters — up to timing normalization. Single-worker serial
// execution makes every count deterministic.
func TestCLITable3Golden(t *testing.T) {
	code, stdout, stderr := runCLI(t,
		"-model", "smallcnn", "-substrate", "oracle",
		"-margin", "0.05", "-workers", "1", "-progress", "-table3")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr: %q)", code, stderr)
	}
	checkGolden(t, "table3_oracle.stdout.golden", stdout)
	checkGolden(t, "table3_oracle.stderr.golden", normalizeTiming(stderr))
}

// TestCLISupervisedMatchesGolden: switching campaign supervision on
// (watchdog + retries) over a healthy substrate must not change one
// output byte — both streams still match the unsupervised goldens.
func TestCLISupervisedMatchesGolden(t *testing.T) {
	code, stdout, stderr := runCLI(t,
		"-model", "smallcnn", "-substrate", "oracle",
		"-margin", "0.05", "-workers", "1", "-progress", "-table3",
		"-experiment-timeout", "1m", "-max-retries", "2")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr: %q)", code, stderr)
	}
	checkGolden(t, "table3_oracle.stdout.golden", stdout)
	checkGolden(t, "table3_oracle.stderr.golden", normalizeTiming(stderr))
}

// TestCLIFig5Golden covers the CSV emitters with the same determinism
// argument.
func TestCLIFig5Golden(t *testing.T) {
	code, stdout, _ := runCLI(t,
		"-model", "smallcnn", "-substrate", "oracle",
		"-margin", "0.05", "-workers", "1", "-fig5")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	checkGolden(t, "fig5_oracle.stdout.golden", stdout)
}

// TestCLITraceRoundTrip drives the -trace/-trace-summary flags through
// the real CLI: the recorded JSONL must parse strictly, each of the four
// Table III campaigns must be complete with its final progress counters
// agreeing with the campaign_end tallies, and the replayed summary must
// land on stderr.
func TestCLITraceRoundTrip(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "run.jsonl")
	code, _, stderr := runCLI(t,
		"-model", "smallcnn", "-substrate", "oracle",
		"-margin", "0.05", "-workers", "1", "-table3",
		"-trace", tracePath, "-trace-summary")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr: %q)", code, stderr)
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := telemetry.ReadTrace(f)
	if err != nil {
		t.Fatalf("recorded trace does not parse: %v", err)
	}
	sum := telemetry.Summarize(events)
	if sum.Dropped != 0 {
		t.Errorf("trace dropped %d events", sum.Dropped)
	}
	if len(sum.Campaigns) != 4 {
		t.Fatalf("traced campaigns = %d, want 4 (one per Table III approach)", len(sum.Campaigns))
	}
	for _, c := range sum.Campaigns {
		if !c.Complete {
			t.Errorf("campaign %q has no campaign_end", c.Campaign)
		}
		if c.FinalProgress == nil {
			t.Errorf("campaign %q has no final progress event", c.Campaign)
			continue
		}
		if c.Done != c.FinalProgress.Done || c.Critical != c.FinalProgress.Critical {
			t.Errorf("campaign %q: campaign_end (done=%d critical=%d) != final progress (done=%d critical=%d)",
				c.Campaign, c.Done, c.Critical, c.FinalProgress.Done, c.FinalProgress.Critical)
		}
		if !strings.Contains(stderr, fmt.Sprintf("campaign %q", c.Campaign)) {
			t.Errorf("-trace-summary output missing campaign %q:\n%s", c.Campaign, stderr)
		}
	}
}

// TestCLIProgressReportsEvalStats asserts the final progress line
// carries the evaluator's experiment breakdown and that skipped +
// evaluated accounts for every injection of the campaign.
func TestCLIProgressReportsEvalStats(t *testing.T) {
	code, _, stderr := runCLI(t,
		"-model", "smallcnn", "-substrate", "oracle",
		"-margin", "0.05", "-workers", "1", "-progress", "-table3")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	finals := 0
	for _, line := range strings.Split(stderr, "\n") {
		if !strings.Contains(line, ": done ") {
			continue
		}
		finals++
		if !strings.Contains(line, "skipped") || !strings.Contains(line, "evaluated") {
			t.Errorf("final progress line missing eval stats: %q", line)
		}
	}
	if finals != 4 {
		t.Errorf("got %d final progress lines, want 4 (one per approach)", finals)
	}
}
