package cpufeat

import (
	"os"
	"strings"
	"testing"
)

// TestAVX2MatchesCPUInfo compares the CPUID probe with the flags the Linux
// kernel reports, which it clears for a feature whose register state it does
// not save.
func TestAVX2MatchesCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		want := false
		for _, f := range strings.Fields(flags) {
			want = want || f == "avx2"
		}
		if AVX2() != want {
			t.Fatalf("AVX2() = %v, /proc/cpuinfo lists avx2: %v", AVX2(), want)
		}
		return
	}
	t.Skip("no flags line in /proc/cpuinfo")
}
