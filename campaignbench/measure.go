package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no samples.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs (0 ≤ p ≤ 100) by linear
// interpolation between the closest order statistics, or 0 for no
// samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// timing summarizes one timed quantity the way every report line gives
// it: the median, the highest percentile that still has at least ten
// samples beyond it, and the sample count.
type timing struct {
	N       int
	Median  float64
	Tail    float64 // value at TailPct; meaningful only when TailOK
	TailPct float64 // percentile rank of Tail, in percent
	TailOK  bool    // false with fewer than 11 samples
}

// tailSamples is how many samples must lie beyond the reported tail
// percentile.
const tailSamples = 10

// summarize computes the timing summary of xs. The tail is the
// (n-10)-th smallest sample: exactly ten samples lie beyond it, so it is
// the highest percentile the sample can support.
func summarize(xs []float64) timing {
	t := timing{N: len(xs), Median: median(xs)}
	if len(xs) > tailSamples {
		s := sorted(xs)
		i := len(s) - tailSamples - 1
		t.Tail = s[i]
		t.TailPct = float64(i+1) / float64(len(s)) * 100
		t.TailOK = true
	}
	return t
}

// String renders the summary for the human report.
func (t timing) String() string {
	if !t.TailOK {
		return fmt.Sprintf("p50 %.6g (n=%d; no tail: fewer than %d samples)", t.Median, t.N, tailSamples+1)
	}
	return fmt.Sprintf("p50 %.6g, p%.1f %.6g (n=%d)", t.Median, t.TailPct, t.Tail, t.N)
}

// outcome classifies one attempted operation.
type outcome int

const (
	opOK outcome = iota
	opFailed
	opRefused
	opMismatched
)

// tally counts operations against their outcomes. An operation is one
// campaign (campaign workloads) or one service job (service workload).
type tally struct {
	attempted, failed, refused, mismatched int
}

func (t *tally) record(o outcome) {
	t.attempted++
	switch o {
	case opFailed:
		t.failed++
	case opRefused:
		t.refused++
	case opMismatched:
		t.mismatched++
	}
}

// bad is the number of operations that did not succeed: failed, refused
// and mismatched alike.
func (t tally) bad() int { return t.failed + t.refused + t.mismatched }

func (t tally) String() string {
	return fmt.Sprintf("%d attempted, %d failed, %d refused, %d mismatched",
		t.attempted, t.failed, t.refused, t.mismatched)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// totalAllocMB is the process's cumulative heap allocation in MB.
func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// hostFacts are recorded beside every run's metrics so a number can be
// traced to the machine and build that produced it.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func readHostFacts() hostFacts {
	h := hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The toolchain stamps the revision when the benchmark is built inside
	// a git work tree; an exported source tree has none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	return h
}
