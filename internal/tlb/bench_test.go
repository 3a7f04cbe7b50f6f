package tlb

import (
	"testing"

	"ptguard/internal/pte"
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

var sinkWalk WalkResult

// BenchmarkWalk times one Walker.Walk over an in-memory page table. In hit,
// the walks cycle over the 512 pages of one leaf table, so the three upper
// entries hit the MMU cache and only the leaf line is read. In miss, each
// of 512 pages has its own table path and consecutive walks use different
// lines at every level, so the 8 KB MMU cache misses and a walk reads all
// four lines. Each case reports its memory reads per walk.
func BenchmarkWalk(b *testing.B) {
	const cr3, pages = 0x1000, 512
	present := pte.Entry(0).SetBit(pte.BitPresent, true)
	run := func(b *testing.B, m *fakeMemory, vaddrs []uint64) {
		w, err := NewWalker(m.read)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range vaddrs {
			if res := w.Walk(cr3, v); res.Fault || res.CheckFailed {
				b.Fatalf("walk of %#x failed: %+v", v, res)
			}
		}
		w.ResetStats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkWalk = w.Walk(cr3, vaddrs[i%pages])
		}
		b.StopTimer()
		b.ReportMetric(float64(w.Stats().MemAccesses)/float64(b.N), "reads/walk")
	}
	b.Run("hit", func(b *testing.B) {
		m := newFakeMemory()
		vaddrs := make([]uint64, pages)
		for i := range vaddrs {
			vaddrs[i] = 0x7f12_3440_0000 + uint64(i)*pte.PageSize
			buildMapping(m, cr3, vaddrs[i], 0x800+uint64(i))
		}
		run(b, m, vaddrs)
	})
	b.Run("miss", func(b *testing.B) {
		m := newFakeMemory()
		vaddrs := make([]uint64, pages)
		for i := range vaddrs {
			// Index j at every level; j steps by 73 entries, over
			// nine lines, from one walk to the next.
			j := uint64(i*73) % pages
			vaddrs[i] = j<<39 | j<<30 | j<<21 | j<<12
			tables := [Levels]uint64{cr3, 0x100_0000 + uint64(i)*0x3000, 0x100_1000 + uint64(i)*0x3000, 0x100_2000 + uint64(i)*0x3000}
			for level := 0; level < Levels-1; level++ {
				m.setEntry(entryAddr(tables[level], vaddrs[i], level), present.WithPFN(tables[level+1]>>pte.PageShift))
			}
			m.setEntry(entryAddr(tables[Levels-1], vaddrs[i], Levels-1), present.WithPFN(0x800+uint64(i)))
		}
		run(b, m, vaddrs)
	})
}
