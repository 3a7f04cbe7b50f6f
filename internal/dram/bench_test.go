package dram

import (
	"testing"

	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

var sinkLatency int

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
