package harness

import (
	"path/filepath"
	"testing"
	"time"

	"ptguard/internal/sim"
	"ptguard/internal/workload"
)

// slowdownResultForBench runs one small Fig. 6 comparison, so benches
// marshal a SlowdownResult of the size a slowdown campaign journals.
func slowdownResultForBench(b *testing.B) SlowdownResult {
	b.Helper()
	prof, err := workload.ProfileByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	cmp, err := sim.Compare(prof, 1_000, 2_000, 1, 10, []sim.Mode{sim.PTGuard, sim.PTGuardOptimized})
	if err != nil {
		b.Fatal(err)
	}
	return SlowdownResult{MACLatency: 10, Comparison: cmp}
}

// BenchmarkJournalAppend times checkpointing one completed slowdown job:
// marshal, CRC framing, the append and its fsync.
func BenchmarkJournalAppend(b *testing.B) {
	res := slowdownResultForBench(b)
	j, _, err := openJournal(filepath.Join(b.TempDir(), "bench.jsonl"), "bench", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.append("slowdown/mcf/10", res, 1, time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}
