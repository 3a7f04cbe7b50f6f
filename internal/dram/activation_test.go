package dram

import (
	"testing"

	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

// denseActivations is the per-row counter array the paged counters
// replaced, kept as the reference model: one int32 per row, allocated
// whole, cleared by a refresh window.
type denseActivations []int32

func (a denseActivations) refresh() { clear(a) }

// rowAddr inverts Locate for any channel: the address of column col of
// (channel, bank, row).
func rowAddr(g Geometry, ch, bank, row, col int) uint64 {
	linesPerRow := g.RowBytes / pte.LineBytes
	line := ((row*g.Channels+ch)*g.BanksPerChannel+bank)*linesPerRow + col
	return uint64(line) * pte.LineBytes
}

// TestPagedActivationsMatchDense drives the device with timing accesses,
// direct counter bumps (the hammer path) and refresh windows, and mirrors
// every activation into a dense array. Rows are drawn
// around chunk boundaries, including the last, partial chunk of a geometry
// whose row count is not a multiple of actChunkRows. After every step the
// touched row's count must match, and at the end every row's count must.
func TestPagedActivationsMatchDense(t *testing.T) {
	geos := []struct {
		name string
		geo  Geometry
	}{
		{"default", DefaultGeometry()},
		{"odd", Geometry{Channels: 2, BanksPerChannel: 3, RowsPerBank: 1500, RowBytes: 1024}},
	}
	for _, tc := range geos {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.geo
			d, err := NewDevice(g, Timing{})
			if err != nil {
				t.Fatal(err)
			}
			nBanks := g.Channels * g.BanksPerChannel
			nRows := nBanks * g.RowsPerBank
			ref := make(denseActivations, nRows)
			rng := stats.NewRNG(uint64(nRows))
			for step := 0; step < 50_000; step++ {
				// A row within three of a chunk boundary, or of the end.
				idx := (rng.Intn(nRows/actChunkRows+1)*actChunkRows + rng.Intn(7) - 3 + nRows) % nRows
				bankIdx, row := idx/g.RowsPerBank, idx%g.RowsPerBank
				ch, bank := bankIdx/g.BanksPerChannel, bankIdx%g.BanksPerChannel
				addr := rowAddr(g, ch, bank, row, rng.Intn(g.RowBytes/pte.LineBytes))
				switch op := rng.Intn(100); {
				case op == 0:
					d.RefreshWindow()
					ref.refresh()
				case op < 30:
					count := rng.Intn(6)
					if got, want := d.addActivations(bankIdx, row, count), int(ref[idx])+count; got != want {
						t.Fatalf("step %d: addActivations = %d, want %d", step, got, want)
					}
					ref[idx] += int32(count)
				default:
					misses := d.Stats().RowMisses
					d.Access(addr, rng.Intn(3) == 0)
					if d.Stats().RowMisses != misses {
						ref[idx]++
					}
				}
				if got := d.Activations(addr); got != int(ref[idx]) {
					t.Fatalf("step %d: row %d has %d activations, want %d", step, idx, got, ref[idx])
				}
			}
			for idx := 0; idx < nRows; idx++ {
				bankIdx, row := idx/g.RowsPerBank, idx%g.RowsPerBank
				addr := rowAddr(g, bankIdx/g.BanksPerChannel, bankIdx%g.BanksPerChannel, row, 0)
				if got := d.Activations(addr); got != int(ref[idx]) {
					t.Fatalf("row %d has %d activations, want %d", idx, got, ref[idx])
				}
			}
		})
	}
}

// TestActivationChunksAllocatedOnFirstTouch: a new device holds no counter
// chunk, reading a count allocates none, and an activation allocates only
// the chunk of its row.
func TestActivationChunksAllocatedOnFirstTouch(t *testing.T) {
	d, err := NewDevice(Geometry{}, Timing{})
	if err != nil {
		t.Fatal(err)
	}
	allocated := func() int {
		n := 0
		for _, c := range d.actChunks {
			if c != nil {
				n++
			}
		}
		return n
	}
	if n := allocated(); n != 0 {
		t.Fatalf("new device holds %d counter chunks", n)
	}
	if d.Activations(0x1234_5000) != 0 || allocated() != 0 {
		t.Fatal("reading a count allocated a chunk")
	}
	d.Access(0x1234_5000, false)
	d.Access(0x1234_5040, true) // same row: a row-buffer hit
	if n := allocated(); n != 1 || d.Activations(0x1234_5000) != 1 {
		t.Errorf("one activated row: %d chunks, count %d; want 1 chunk, count 1", n, d.Activations(0x1234_5000))
	}
}
