package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cnnsfi/sfi"
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

var resultFile = sync.OnceValues(func() (string, error) {
	net, err := sfi.BuildModel("smallcnn", 1)
	if err != nil {
		return "", err
	}
	o := sfi.NewOracle(net, sfi.OracleDefaults(3))
	cfg := sfi.DefaultConfig()
	cfg.ErrorMargin = 0.05 // keep the fixture campaign small
	plan := sfi.PlanDataUnaware(o.Space(), cfg)
	res := sfi.Run(o, plan, 0)
	path := filepath.Join(os.TempDir(), "sfireport_test_result.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	return path, res.WriteJSON(f)
})

// savedResult runs one seeded data-unaware smallcnn campaign (shared
// across tests) and returns the saved result path. Every seed is pinned,
// so the file — and any report over it — is deterministic.
func savedResult(t *testing.T) string {
	t.Helper()
	path, err := resultFile()
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCLIReportGolden pins the full report — rankings plus the
// reliability sweep — over a seeded saved campaign.
func TestCLIReportGolden(t *testing.T) {
	code, stdout, stderr := runCLI(t,
		"-in", savedResult(t), "-fit", "1e-4", "-top-bits", "3")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr: %q)", code, stderr)
	}
	if stderr != "" {
		t.Errorf("stderr not empty: %q", stderr)
	}
	checkGolden(t, "report_smallcnn.stdout.golden", stdout)
}

// TestCLIQuarantineGolden pins the quarantine surfacing: a supervised
// campaign's excluded draws are listed per stratum with the effective n
// and the (inflated) margin over the reduced sample.
func TestCLIQuarantineGolden(t *testing.T) {
	f, err := os.Open(savedResult(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sfi.ReadResultJSON(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the healthy fixture into a supervised outcome: two draws
	// of stratum 0 quarantined, so its effective n shrinks by two.
	res.Estimates[0].SampleSize -= 2
	res.Quarantined = []sfi.QuarantinedFault{
		{Stratum: 0, Index: 3, Fault: "stuck-at-0 layer 0 bit 31 param 7", Attempts: 3, Err: "experiment panicked on attempt 3: index out of range"},
		{Stratum: 0, Index: 11, Fault: "stuck-at-0 layer 0 bit 31 param 19", Attempts: 3, Err: "experiment exceeded the experiment timeout on attempt 3"},
	}
	path := filepath.Join(t.TempDir(), "quarantined.json")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.WriteJSON(out); err != nil {
		t.Fatal(err)
	}
	out.Close()

	code, stdout, stderr := runCLI(t, "-in", path)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr: %q)", code, stderr)
	}
	checkGolden(t, "report_quarantined.stdout.golden", stdout)
}

// TestCLIFlagValidation pins the failure modes: exit code 1 and a single
// "sfireport: ..." line on stderr.
func TestCLIFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"missing_input", []string{"-in", filepath.Join(t.TempDir(), "nosuch.json")}, "no such file"},
		{"run_unknown_model", []string{"-run", "-model", "nosuch", "-in", filepath.Join(t.TempDir(), "r.json")}, "nosuch"},
		{"negative_top_bits", []string{"-run", "-in", filepath.Join(t.TempDir(), "r.json"), "-top-bits", "-1"}, "-top-bits must be >= 0 (got -1)"},
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
			if !strings.HasPrefix(stderr, "sfireport: ") || strings.Count(stderr, "\n") != 1 {
				t.Errorf("want a single 'sfireport: ...' line, got %q", stderr)
			}
			if !strings.Contains(stderr, tc.wantErr) {
				t.Errorf("stderr %q missing %q", stderr, tc.wantErr)
			}
		})
	}
}

func TestCLIBadFlagSyntax(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-fit", "lots")
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
