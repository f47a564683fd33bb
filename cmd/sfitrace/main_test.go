package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

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

// TestSummaryGolden pins the replayed report for a checked-in fixture
// trace, in both timing modes. Every duration in the fixture is a
// recorded constant, so even the un-stripped report is deterministic.
// demo.jsonl is a complete campaign that tallied 550 of 600 planned
// draws (stratum 0 ends at 350 of 400), which a fixed-n engine cannot
// produce, so its reports carry the SHORT flags.
func TestSummaryGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"demo.golden", []string{"-in", "testdata/demo.jsonl"}},
		{"demo_strip.golden", []string{"-in", "testdata/demo.jsonl", "-strip-timing"}},
		{"truncated.golden", []string{"-in", "testdata/truncated.jsonl"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			code, stdout, stderr := runCLI(t, tc.args...)
			if code != 0 {
				t.Fatalf("exit code = %d, want 0 (stderr: %q)", code, stderr)
			}
			if stderr != "" {
				t.Errorf("stderr not empty: %q", stderr)
			}
			checkGolden(t, tc.golden, stdout)
		})
	}
}

// TestCLIErrors pins the one-line actionable failure modes: exit code 1,
// a single "sfitrace: ..." line on stderr, nothing on stdout.
func TestCLIErrors(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"missing_file", []string{"-in", "testdata/nosuch.jsonl"}, "no such file"},
		{"positional_args", []string{"trace.jsonl"}, "unexpected arguments"},
		{"bad_trace_line", []string{"-in", "testdata/bad.jsonl"}, `line 2: telemetry: unknown event kind "nonsense"`},
		{"empty_trace", []string{"-in", empty}, "empty trace"},
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
			if !strings.HasPrefix(stderr, "sfitrace: ") || strings.Count(stderr, "\n") != 1 {
				t.Errorf("want a single 'sfitrace: ...' line, got %q", stderr)
			}
			if !strings.Contains(stderr, tc.wantErr) {
				t.Errorf("stderr %q missing %q", stderr, tc.wantErr)
			}
		})
	}
}

func TestCLIBadFlagSyntax(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-strip-timing=maybe")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if stdout != "" {
		t.Errorf("stdout not empty: %q", stdout)
	}
	if !strings.Contains(stderr, "invalid") {
		t.Errorf("stderr missing flag error: %q", stderr)
	}
}
