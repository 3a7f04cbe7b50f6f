package tlb

import (
	"testing"

	"ptguard/internal/stats"
)

var sinkPFN uint64

// BenchmarkTLBLookup times one LookupVM on a full 64-entry TLB: hit looks
// up random resident pages (the common case of a simulated reference),
// miss-insert sweeps pages the TLB never holds and installs each after its
// miss, as the simulator does after a page walk.
func BenchmarkTLBLookup(b *testing.B) {
	const n = 1 << 12
	rng := stats.NewRNG(1)
	resident := make([]uint64, n)
	for i := range resident {
		resident[i] = 0x100 + uint64(rng.Intn(DefaultEntries))*3
	}
	b.Run("hit", func(b *testing.B) {
		tl, err := New(0)
		if err != nil {
			b.Fatal(err)
		}
		for v := 0; v < DefaultEntries; v++ {
			tl.Insert(0x100+uint64(v)*3, uint64(v))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkPFN, _ = tl.LookupVM(0, resident[i&(n-1)])
		}
	})
	b.Run("miss-insert", func(b *testing.B) {
		tl, err := New(0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			vpn := uint64(i)
			if pfn, ok := tl.LookupVM(0, vpn); ok {
				sinkPFN = pfn
				continue
			}
			tl.InsertVM(0, vpn, vpn)
		}
	})
}
