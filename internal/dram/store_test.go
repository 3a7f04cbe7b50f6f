package dram

import (
	"slices"
	"testing"

	"ptguard/internal/obs"
	"ptguard/internal/pte"
)

// storeModel is FuzzLineStore's reference: a plain line map that seals
// eagerly. img holds each stored line's sealed image; owedBy records, for
// a line the device should still hold unsealed, the sealer that owes it.
// calls is the number of seals each sealer should have made.
type storeModel struct {
	img    map[uint64]pte.Line
	owedBy map[uint64]*countingSealer
	calls  map[*countingSealer]int
}

// sealedImage is countingSealer.Seal without the call count.
func sealedImage(s *countingSealer, addr uint64, line pte.Line) pte.Line {
	line[0] ^= s.mark ^ pte.Entry(addr)
	return line
}

// settle seals the model's line at addr if a sealer still owes it, as a
// device read does.
func (m *storeModel) settle(addr uint64) {
	if s := m.owedBy[addr]; s != nil {
		m.calls[s]++
		delete(m.owedBy, addr)
	}
}

func (m *storeModel) write(addr uint64, line pte.Line, s *countingSealer) {
	delete(m.owedBy, addr)
	if s == nil {
		m.img[addr] = line
		return
	}
	m.img[addr] = sealedImage(s, addr, line)
	m.owedBy[addr] = s
}

// storeAddr decodes a page and a line byte into a line address: the page
// byte's low nibble picks one of 16 neighbouring pages and its high nibble
// one of 16 regions 1 TB apart; the line byte's low six bits pick the line
// and its top two an offset inside it, which the device must ignore.
func storeAddr(pg, ln byte) (line, addr uint64) {
	pn := uint64(pg&0x0F) + uint64(pg>>4)<<28
	line = pn<<pte.PageShift | uint64(ln&63)*pte.LineBytes
	return line, line + uint64(ln>>6)*21
}

// FuzzLineStore drives the device's line store with WriteLine,
// WriteUnsealed under three sealers, ReadLine, Contains, FlipLineBits
// (never-written lines included), overwrites of owed lines and Lines, and
// after every operation holds it to storeModel: the stored images (owed
// lines unsealed, under the right sealer), Contains, StoredLines, the
// dram.stored_lines gauge, each sealer's call count and, whenever nothing
// is owed (so that visiting seals nothing), the Lines sequence. Each
// operation takes five input bytes: kind, page, line and two arguments.
func FuzzLineStore(f *testing.F) {
	var dense []byte
	for i := 0; i < pageLines; i++ {
		dense = append(dense, 1, 0, byte(i), byte(i), byte(i*7))
	}
	dense = append(dense, 2, 0, 5, 0, 0, 2, 0, 62|3<<6, 0, 0, 4, 0, 9, 17, 1, 5, 0, 12, 0, 0, 6, 0, 0, 0, 0)
	f.Add(dense)
	var sparse []byte
	for p := 0; p < 16; p++ {
		sparse = append(sparse, byte(p%2), byte(p<<4), byte(p*4), byte(p), byte(p))
	}
	sparse = append(sparse, 3, 0x21, 1, 0, 0, 4, 0x31, 7, 3, 1, 4, 0x41, 8, 0, 4, 2, 0x10, 4, 0, 0, 6, 0, 0, 0, 0)
	f.Add(sparse)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 5*400 {
			return
		}
		// A small module: the first flip allocates a counter per row, and
		// the line store ignores the geometry.
		d, err := NewDevice(Geometry{Channels: 1, BanksPerChannel: 4, RowsPerBank: 256, RowBytes: 8192}, Timing{})
		if err != nil {
			t.Fatal(err)
		}
		h, err := NewHammerer(d, HammerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		sealers := []*countingSealer{{mark: 0xA << 12}, {mark: 0xB << 12}, {mark: 0xC << 12}}
		m := &storeModel{
			img:    map[uint64]pte.Line{},
			owedBy: map[uint64]*countingSealer{},
			calls:  map[*countingSealer]int{},
		}
		var lastOwed uint64
		for op := 0; len(data) >= 5; op, data = op+1, data[5:] {
			kind, a, b := data[0]%7, data[3], data[4]
			line, addr := storeAddr(data[1], data[2])
			img := pte.Line{pte.Entry(a)<<8 | pte.Entry(b), pte.Entry(line), pte.Entry(op)}
			switch kind {
			case 0:
				d.WriteLine(addr, img)
				m.write(line, img, nil)
			case 1:
				s := sealers[a%3]
				d.WriteUnsealed(addr, img, s)
				m.write(line, img, s)
				lastOwed = line
			case 2:
				got := d.ReadLine(addr)
				m.settle(line)
				if got != m.img[line] {
					t.Fatalf("op %d: ReadLine(%#x) = %v, want %v", op, addr, got, m.img[line])
				}
			case 3:
				_, ok := m.img[line]
				if d.Contains(addr) != ok {
					t.Fatalf("op %d: Contains(%#x) = %v, want %v", op, addr, !ok, ok)
				}
			case 4:
				x := int(a)<<1 | int(b>>7)
				bits := [][]int{nil, {x}, {x, x}, {x, 600}, {600, -1}}[b%5]
				h.FlipLineBits(addr, bits)
				if len(bits) == 0 {
					break
				}
				m.settle(line)
				l, n := m.img[line], 0
				for _, bit := range bits {
					if bit >= 0 && bit < pte.LineBytes*8 {
						l[bit/64] ^= 1 << uint(bit%64)
						n++
					}
				}
				if n > 0 {
					m.img[line] = l
				}
			case 5:
				// Overwrite the line last written unsealed, owed or not.
				if b&1 == 0 {
					d.WriteLine(lastOwed, img)
					m.write(lastOwed, img, nil)
				} else {
					s := sealers[a%3]
					d.WriteUnsealed(lastOwed, img, s)
					m.write(lastOwed, img, s)
				}
			case 6:
				for addr := range m.owedBy {
					m.settle(addr)
				}
				checkLines(t, op, d, m)
			}
			checkStore(t, op, d, m, sealers)
		}
	})
}

// checkStore compares everything the device exposes without sealing with
// the model.
func checkStore(t *testing.T, op int, d *Device, m *storeModel, sealers []*countingSealer) {
	t.Helper()
	for addr, want := range m.img {
		if !d.Contains(addr) {
			t.Fatalf("op %d: stored line %#x not contained", op, addr)
		}
		p, i := d.pages[addr>>pte.PageShift], int(addr/pte.LineBytes)%pageLines
		got, owed := *d.line(p, i), p.owed[i] != 0
		switch s := m.owedBy[addr]; {
		case s == nil && owed:
			t.Fatalf("op %d: line %#x still owed to slot %d", op, addr, p.owed[i]-1)
		case s == nil && got != want:
			t.Fatalf("op %d: line %#x stores %v, want %v", op, addr, got, want)
		case s != nil && (!owed || d.sealers[p.owed[i]-1] != Sealer(s)):
			t.Fatalf("op %d: line %#x not owed to its writer (owed %v)", op, addr, owed)
		case s != nil && sealedImage(s, addr, got) != want:
			t.Fatalf("op %d: unsealed line %#x stores %v, which seals to %v, want %v",
				op, addr, got, sealedImage(s, addr, got), want)
		}
	}
	if d.StoredLines() != len(m.img) {
		t.Fatalf("op %d: StoredLines = %d, want %d", op, d.StoredLines(), len(m.img))
	}
	if d.unsealed != len(m.owedBy) {
		t.Fatalf("op %d: %d lines unsealed, want %d", op, d.unsealed, len(m.owedBy))
	}
	reg := obs.NewRegistry()
	d.PublishObs(reg)
	if got := reg.Snapshot().Gauges["dram.stored_lines"]; got != float64(len(m.img)) {
		t.Fatalf("op %d: dram.stored_lines = %v, want %d", op, got, len(m.img))
	}
	for i, s := range sealers {
		if s.calls != m.calls[s] {
			t.Fatalf("op %d: sealer %d sealed %d lines, want %d", op, i, s.calls, m.calls[s])
		}
	}
	if len(m.owedBy) == 0 {
		checkLines(t, op, d, m)
	}
}

// checkLines compares the Lines visit with the model's lines in ascending
// address order.
func checkLines(t *testing.T, op int, d *Device, m *storeModel) {
	t.Helper()
	want := make([]uint64, 0, len(m.img))
	for addr := range m.img {
		want = append(want, addr)
	}
	slices.Sort(want)
	var got []uint64
	d.Lines(func(addr uint64, line pte.Line) {
		if line != m.img[addr] {
			t.Fatalf("op %d: Lines visits %#x as %v, want %v", op, addr, line, m.img[addr])
		}
		got = append(got, addr)
	})
	if !slices.Equal(got, want) {
		t.Fatalf("op %d: Lines visited %#x, want %#x", op, got, want)
	}
}
