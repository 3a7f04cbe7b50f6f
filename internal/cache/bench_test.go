package cache

import (
	"testing"

	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

var sinkResult Result

// BenchmarkCacheAccess times one Access on two streams: l1-hit replays
// random lines of a half-full L1 (every access hits, as most of a hot
// workload's references do), l3-miss sweeps four times the LLC's capacity
// with one store in three (every access misses and evicts, a third of the
// victims dirty).
func BenchmarkCacheAccess(b *testing.B) {
	const n = 1 << 12
	rng := stats.NewRNG(1)
	hot := make([]uint64, n)
	for i := range hot {
		hot[i] = uint64(rng.Intn(L1Config.SizeBytes/pte.LineBytes/2)) * pte.LineBytes
	}
	streams := []struct {
		name  string
		cfg   Config
		addr  func(i int) uint64
		write func(i int) bool
	}{
		{"l1-hit", L1Config, func(i int) uint64 { return hot[i&(n-1)] }, func(i int) bool { return i%8 == 0 }},
		{"l3-miss", L3Config, func(i int) uint64 {
			return uint64(i%(4*L3Config.SizeBytes/pte.LineBytes)) * pte.LineBytes
		}, func(i int) bool { return i%3 == 0 }},
	}
	for _, st := range streams {
		b.Run(st.name, func(b *testing.B) {
			c := mustCache(b, st.cfg)
			for i := 0; i < 4*st.cfg.SizeBytes/pte.LineBytes; i++ {
				c.Access(st.addr(i), st.write(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkResult = c.Access(st.addr(i), st.write(i))
			}
		})
	}
}
