package dram

import (
	"testing"

	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

var (
	sinkLatency int
	sinkLine    pte.Line
)

// BenchmarkDeviceAccess times one timing Access over random lines of a
// 64 MB region: row-buffer hits, empty-bank activations and conflicts
// across every bank, one store in three.
func BenchmarkDeviceAccess(b *testing.B) {
	const n = 1 << 12
	rng := stats.NewRNG(1)
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(64<<20/pte.LineBytes)) * pte.LineBytes
	}
	d, err := NewDevice(Geometry{}, Timing{})
	if err != nil {
		b.Fatal(err)
	}
	for _, a := range addrs {
		d.Access(a, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkLatency = d.Access(addrs[i&(n-1)], i%3 == 0)
	}
}

// BenchmarkDeviceStore times the line store on a fresh device per
// iteration, in the two shapes a simulated machine produces.
//   - flush: a page-table flush, 32 pages of 64 lines written unsealed in
//     ascending order, then the first reads of 8 of them, which seal them.
//   - data: first-touch data traffic at about 20 lines per page, fig6
//     xalancbmk's density (11,596 lines on 574 pages): each access is
//     Contains, WriteLine when absent, then ReadLine, over 576 pages in
//     a shuffled order, every line touched twice.
func BenchmarkDeviceStore(b *testing.B) {
	b.Run("flush", func(b *testing.B) {
		const pages = 32
		s := &countingSealer{mark: 0xA00}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d := newTestDevice(b)
			for a := uint64(0); a < pages*pte.PageSize; a += pte.LineBytes {
				d.WriteUnsealed(1<<30+a, pte.Line{pte.Entry(a)}, s)
			}
			for a := uint64(0); a < pages*pte.PageSize; a += pages / 8 * pte.PageSize {
				sinkLine = d.ReadLine(1<<30 + a)
			}
		}
	})
	b.Run("data", func(b *testing.B) {
		const pages, perPage = 576, 20
		rng := stats.NewRNG(1)
		var addrs []uint64
		for p := uint64(0); p < pages; p++ {
			base := uint64(rng.Intn(1<<20)) << pte.PageShift
			for _, l := range rng.Perm(pageLines)[:perPage] {
				addrs = append(addrs, base+uint64(l)*pte.LineBytes)
			}
		}
		addrs = append(addrs, addrs...)
		for i := len(addrs) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			addrs[i], addrs[j] = addrs[j], addrs[i]
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d := newTestDevice(b)
			for _, a := range addrs {
				if !d.Contains(a) {
					d.WriteLine(a, pte.Line{pte.Entry(a)})
				}
				sinkLine = d.ReadLine(a)
			}
		}
	})
}
