package memctrl

import (
	"testing"

	"ptguard/internal/core"
	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

// benchLines is BenchmarkControllerReadWrite's working set: half page-table
// lines, half data lines, four times the guard's 1024-slot MAC memo, so the
// memo serves only the reuse the stream itself carries.
const benchLines = 4096

type benchOp struct {
	addr  uint64
	write bool
	isPTE bool
	line  pte.Line
}

// benchStream is a fixed access stream over benchLines lines: one
// first-touch write per line, then three accesses per line drawn at random,
// half reads (tagged as walks for table lines) and half writebacks of the
// line's content. One data line in ten is all-zero, as in the simulator.
func benchStream() []benchOp {
	r := stats.NewRNG(0xC7A1)
	content := make([]pte.Line, benchLines)
	for i := range content {
		switch {
		case i%2 == 0:
			content[i] = pteLine(0x10000 + uint64(i)*8)
		case r.Intn(10) != 0:
			for j := range content[i] {
				content[i][j] = pte.Entry(r.Uint64())
			}
		}
	}
	ops := make([]benchOp, 0, 4*benchLines)
	op := func(i int, write bool) benchOp {
		return benchOp{addr: 0x100000 + uint64(i)*pte.LineBytes, write: write, isPTE: i%2 == 0, line: content[i]}
	}
	for i := range content {
		ops = append(ops, op(i, true))
	}
	for n := 0; n < 3*benchLines; n++ {
		ops = append(ops, op(r.Intn(benchLines), r.Intn(2) == 0))
	}
	return ops
}

// BenchmarkControllerReadWrite is the memctrl layer bench: the fixed
// stream through a fresh controller per iteration (built outside the
// timer), reported per access.
func BenchmarkControllerReadWrite(b *testing.B) {
	ops := benchStream()
	guards := []struct {
		name  string
		guard func(testing.TB) *core.Guard
	}{
		{"baseline", func(testing.TB) *core.Guard { return nil }},
		{"ptguard", func(tb testing.TB) *core.Guard { return testGuard(tb, nil) }},
		{"ptguard-opt", func(tb testing.TB) *core.Guard {
			return testGuard(tb, func(c *core.Config) {
				c.OptIdentifier = true
				c.Identifier = 0x5EED_1DE7
				c.OptZeroMAC = true
			})
		}},
	}
	for _, gc := range guards {
		b.Run(gc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c, err := New(testDevice(b), gc.guard(b), 0)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, o := range ops {
					if o.write {
						if _, err := c.WriteLine(o.addr, o.line); err != nil {
							b.Fatal(err)
						}
					} else if _, _, ok := c.ReadLine(o.addr, o.isPTE); !ok {
						b.Fatalf("clean read at %#x failed", o.addr)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ops)), "ns/access")
		})
	}
}
