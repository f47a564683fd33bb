package nn

import (
	"os"
	"strings"
	"testing"
)

// TestAVXDetected fails when the CPU flags the kernel reports in
// /proc/cpuinfo include avx (Linux lists it only when the OS also
// saves the Y registers) but init picked the Go row kernel: broken
// detection would otherwise drop the AVX speed-up without a trace.
func TestAVXDetected(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		hasAVX := false
		for _, f := range strings.Fields(flags) {
			hasAVX = hasAVX || f == "avx"
		}
		if hasAVX && !useAVX {
			t.Fatal("/proc/cpuinfo lists avx, but init picked the Go row kernel")
		}
		if !hasAVX && useAVX {
			t.Fatal("init picked the AVX row kernel on a CPU whose /proc/cpuinfo flags lack avx")
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
