package dram

import (
	"testing"

	"ptguard/internal/obs"
	"ptguard/internal/pte"
)

// countingSealer seals a line by XORing a per-sealer mark into its first
// entry and counts its calls, so a test can tell which sealer sealed a
// line and whether a read sealed it again.
type countingSealer struct {
	mark  pte.Entry
	calls int
}

func (s *countingSealer) Seal(addr uint64, line pte.Line) pte.Line {
	s.calls++
	line[0] ^= s.mark ^ pte.Entry(addr)
	return line
}

// TestSealOnFirstRead pins the device's unsealed-line bookkeeping: a line
// is sealed by the sealer that wrote it, once, on the first ReadLine,
// Lines visit or flip injection; Contains, StoredLines and the stored-lines
// gauge count it before then; WriteLine drops a pending seal.
func TestSealOnFirstRead(t *testing.T) {
	d := newTestDevice(t)
	a, b := &countingSealer{mark: 0xA00}, &countingSealer{mark: 0xB00}
	line := pte.Line{0x1000, 2, 3}
	sealedBy := func(s *countingSealer, addr uint64) pte.Line {
		l := line
		l[0] ^= s.mark ^ pte.Entry(addr)
		return l
	}

	d.WriteUnsealed(0x40, line, a)
	d.WriteUnsealed(0x80, line, b)
	d.WriteUnsealed(0xC0, line, a)
	d.WriteUnsealed(0x100, line, b)
	if a.calls+b.calls != 0 {
		t.Fatalf("writing sealed %d lines, want 0", a.calls+b.calls)
	}
	if !d.Contains(0x40) || !d.Contains(0x87) || d.Contains(0x140) || d.StoredLines() != 4 {
		t.Fatalf("contains/stored lines miscount unsealed lines (stored %d)", d.StoredLines())
	}
	reg := obs.NewRegistry()
	d.PublishObs(reg)
	if got := reg.Snapshot().Gauges["dram.stored_lines"]; got != 4 {
		t.Errorf("dram.stored_lines = %v, want 4", got)
	}

	// First read seals with the writer's sealer, later reads do not reseal.
	for i := 0; i < 2; i++ {
		if got := d.ReadLine(0x41); got != sealedBy(a, 0x40) {
			t.Fatalf("read %d of 0x40 = %v, want %v", i, got, sealedBy(a, 0x40))
		}
	}
	if a.calls != 1 || b.calls != 0 {
		t.Fatalf("seal calls a=%d b=%d, want 1, 0", a.calls, b.calls)
	}

	// WriteLine drops the pending seal; an unwritten line reads zero.
	d.WriteLine(0x80, line)
	if got := d.ReadLine(0x80); got != line || b.calls != 0 {
		t.Fatalf("overwritten line reads %v after %d seals, want %v unsealed", got, b.calls, line)
	}
	if d.ReadLine(0x140) != (pte.Line{}) || d.StoredLines() != 4 {
		t.Fatal("unwritten line reads non-zero or stored count moved")
	}

	// Flip injection seals before flipping.
	h, err := NewHammerer(d, HammerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h.FlipLineBits(0x100, []int{1})
	want := sealedBy(b, 0x100)
	want[0] ^= 2
	if got := d.ReadLine(0x100); got != want || b.calls != 1 {
		t.Fatalf("flipped line = %v after %d seals, want %v after 1", got, b.calls, want)
	}

	// Lines seals what is left, with its own sealer, in address order.
	var visited []uint64
	d.Lines(func(addr uint64, l pte.Line) {
		visited = append(visited, addr)
		if addr == 0xC0 && l != sealedBy(a, 0xC0) {
			t.Errorf("Lines visits 0xC0 as %v, want %v", l, sealedBy(a, 0xC0))
		}
	})
	if len(visited) != 4 || visited[0] != 0x40 || visited[3] != 0x100 || a.calls != 2 {
		t.Fatalf("Lines visited %#x with %d seals by a, want 4 ascending lines and 2", visited, a.calls)
	}
	if d.unsealed != 0 || a.calls+b.calls != 3 {
		t.Fatalf("%d lines left unsealed after %d seals", d.unsealed, a.calls+b.calls)
	}
}

// TestSealerSlotsRecycle: a sealer that owes no line frees its tag, and a
// device owed lines by more sealers than it has tags seals the overflow at
// write time, so every line still seals with its own sealer.
func TestSealerSlotsRecycle(t *testing.T) {
	d := newTestDevice(t)
	sealers := make([]*countingSealer, lineOffsetMask+2)
	for i := range sealers {
		sealers[i] = &countingSealer{mark: pte.Entry(i+1) << 12}
		d.WriteUnsealed(uint64(i)*pte.LineBytes, pte.Line{}, sealers[i])
	}
	if len(d.sealers) != lineOffsetMask {
		t.Fatalf("%d sealer slots, want %d", len(d.sealers), lineOffsetMask)
	}
	for i, s := range sealers {
		if want := i >= lineOffsetMask; (s.calls == 1) != want {
			t.Errorf("sealer %d sealed %d lines at write time, want overflow only", i, s.calls)
		}
	}
	for i, s := range sealers {
		addr := uint64(i) * pte.LineBytes
		if got := d.ReadLine(addr)[0]; got != s.mark^pte.Entry(addr) {
			t.Errorf("line %#x sealed as %#x, want sealer %d's mark", addr, uint64(got), i)
		}
	}
	// Every slot is free again; a new sealer takes the first.
	late := &countingSealer{mark: 0x7}
	d.WriteUnsealed(0x10000, pte.Line{}, late)
	if d.sealers[0] != Sealer(late) || late.calls != 0 || d.unsealed != 1 {
		t.Fatalf("released slots not reused: slot 0 = %v, seals %d", d.sealers[0], late.calls)
	}
}
