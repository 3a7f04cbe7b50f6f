package core

import (
	"testing"

	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

// BenchmarkCorrectionSearch times one walk read of a line that no
// correction strategy repairs, so the §VI-D search runs every guess. The
// line's protected bits are random, which leaves the flag vote and PFN
// contiguity nothing to exploit, and it has two flips in PTE 1 and one in
// PTE 5. It reports the guesses per read.
func BenchmarkCorrectionSearch(b *testing.B) {
	b.Run("qarma128", func(b *testing.B) {
		g := correctionGuard(b, nil)
		const addr = 0xD000
		r := stats.NewRNG(0xBE4C)
		var line pte.Line
		for i := range line {
			line[i] = pte.Entry(r.Uint64() & g.cfg.Format.ProtectedMask)
		}
		img := writePTE(b, g, line, addr)
		bad := flipBit(flipBit(flipBit(img, 1, pte.BitWritable), 1, 20), 5, 30)
		rd := g.OnRead(bad, addr, true)
		if rd.Corrected || !rd.CheckFailed {
			b.Fatalf("walk read %+v: want an unrepaired line", rd)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rd = g.OnRead(bad, addr, true)
		}
		b.ReportMetric(float64(rd.Guesses), "guesses/op")
	})
}
