package memctrl

import (
	"testing"

	"ptguard/internal/core"
	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

// TestWriteLinesBatchMatchesScalar: the batched flush must leave stats,
// stored bytes, guard counters and total latency exactly as a sequential
// WriteLine loop would, for the guarded and the baseline controller.
func TestWriteLinesBatchMatchesScalar(t *testing.T) {
	for _, guarded := range []bool{true, false} {
		name := "guarded"
		if !guarded {
			name = "baseline"
		}
		t.Run(name, func(t *testing.T) {
			var gs, gb *core.Guard
			if guarded {
				gs, gb = testGuard(t, nil), testGuard(t, nil)
			}
			cs, err := New(testDevice(t), gs, 2)
			if err != nil {
				t.Fatal(err)
			}
			cb, err := New(testDevice(t), gb, 2)
			if err != nil {
				t.Fatal(err)
			}

			r := stats.NewRNG(0xF1005)
			var lines []pte.Line
			var addrs []uint64
			for i := 0; i < 30; i++ {
				switch i % 3 {
				case 0:
					lines = append(lines, pteLine(0x800+uint64(i)*8))
				case 1:
					lines = append(lines, pte.Line{})
				default:
					var d pte.Line
					for k := range d {
						d[k] = pte.Entry(r.Uint64() | pte.MaskMAC)
					}
					lines = append(lines, d)
				}
				addrs = append(addrs, uint64(0x10000+i*0x40))
			}

			sLat := 0
			for i := range lines {
				lat, werr := cs.WriteLine(addrs[i], lines[i])
				if werr != nil {
					t.Fatal(werr)
				}
				sLat += lat
			}
			bLat, werr := cb.WriteLinesBatch(addrs, lines)
			if werr != nil {
				t.Fatal(werr)
			}
			if bLat != sLat {
				t.Errorf("latency = %d, scalar %d", bLat, sLat)
			}
			if cb.Stats() != cs.Stats() {
				t.Errorf("stats diverge:\nbatch  %+v\nscalar %+v", cb.Stats(), cs.Stats())
			}
			for i := range lines {
				if cb.Device().ReadLine(addrs[i]) != cs.Device().ReadLine(addrs[i]) {
					t.Errorf("stored line %d diverges", i)
				}
			}
			if guarded && gs.Counters() != gb.Counters() {
				t.Errorf("guard counters diverge:\nbatch  %+v\nscalar %+v", gb.Counters(), gs.Counters())
			}
		})
	}
}

func TestWriteLinesBatchLengthMismatchPanics(t *testing.T) {
	c, err := New(testDevice(t), testGuard(t, nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	c.WriteLinesBatch(make([]uint64, 2), make([]pte.Line, 3))
}
