package sim

import (
	"syscall"
	"testing"
	"time"
)

// BenchmarkCompare times one Compare job in three shapes: the benchmark of
// record's fig7-proc job (10k warm-up and 40k measured instructions at a
// 10-cycle MAC) on mcf, with PT-Guard alone and with both protected modes,
// so the cost of a second mode shows apart from the first; and its
// fig6-ptguard job (50k warm-up and 200k measured) on xalancbmk. Each also
// reports the process CPU time per op, which counts the pipelined memory
// side's goroutine, so a baseline shows the wall-time gain of overlapping
// it apart from the CPU spent.
func BenchmarkCompare(b *testing.B) {
	for _, c := range []struct {
		name                 string
		prof                 string
		warmup, instructions int
		modes                []Mode
	}{
		{"ptguard", "mcf", 10_000, 40_000, []Mode{PTGuard}},
		{"both", "mcf", 10_000, 40_000, []Mode{PTGuard, PTGuardOptimized}},
		{"fig6-ptguard", "xalancbmk", 50_000, 200_000, []Mode{PTGuard}},
	} {
		prof := testProfile(b, c.prof)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			cpu := cpuTime(b)
			for i := 0; i < b.N; i++ {
				if _, err := Compare(prof, c.warmup, c.instructions, 1, 10, c.modes); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cpuTime(b)-cpu)/float64(time.Millisecond)/float64(b.N), "cpu-ms/op")
		})
	}
}

// cpuTime is the user and system CPU time the process has used.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
