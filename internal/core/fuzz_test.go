package core

import (
	"testing"

	"ptguard/internal/mac"
	"ptguard/internal/pte"
)

func fuzzGuard(tb testing.TB) (*Guard, pte.Format) {
	tb.Helper()
	format, err := pte.FormatX86(40)
	if err != nil {
		tb.Fatal(err)
	}
	key := make([]byte, mac.KeySize)
	for i := range key {
		key[i] = byte(i*11 + 3)
	}
	g, err := NewGuard(Config{Format: format, Key: key})
	if err != nil {
		tb.Fatal(err)
	}
	return g, format
}

// FuzzMACEmbedVerifyStrip drives the Guard's whole protect/verify/strip
// cycle with arbitrary PTE payloads and asserts the §IV invariants:
//
//  1. any line with a free MAC field is protected on write;
//  2. the unmodified DRAM image verifies and strips back to the original;
//  3. a single flip in any MAC-covered bit is detected (correction off);
//  4. a flip confined to uncovered bits (accessed, identifier field) passes
//     and never corrupts the protected payload;
//  5. every read gives the same ReadResult on a fresh guard with no MAC
//     memo history, so the memo never changes a verdict.
func FuzzMACEmbedVerifyStrip(f *testing.F) {
	f.Add(make([]byte, pte.LineBytes), uint16(0), uint64(0x1000))
	typical := pte.Line{0x8000000000025067, 0x8000000000026067, 0, 0x25063, 0, 0, 0x7FFF067, 0}
	img := typical.Bytes()
	f.Add(img[:], uint16(5), uint64(0x40))      // accessed bit: uncovered
	f.Add(img[:], uint16(52), uint64(0x80))     // identifier field: uncovered
	f.Add(img[:], uint16(40), uint64(0x2000))   // MAC field bit: covered
	f.Add(img[:], uint16(64+12), uint64(0x100)) // PFN bit of PTE 1: covered
	f.Fuzz(func(t *testing.T, raw []byte, flipBit uint16, addr uint64) {
		g, format := fuzzGuard(t)
		var img [pte.LineBytes]byte
		copy(img[:], raw)
		line := pte.LineFromBytes(img)
		// Free the MAC field, as the trusted kernel does for table lines
		// (Table IV): the pattern match requires it.
		for i := range line {
			line[i] = pte.Entry(uint64(line[i]) &^ format.MACMask)
		}
		addr &^= pte.LineBytes - 1
		// Invariant 5: replay a read on a fresh guard and compare.
		replay := func(img pte.Line, got ReadResult) {
			t.Helper()
			fresh, _ := fuzzGuard(t)
			if want := fresh.OnRead(img, addr, true); got != want {
				t.Fatalf("read depends on memo history:\n memoized %+v\n fresh    %+v", got, want)
			}
		}

		w, err := g.OnWrite(line, addr)
		if err != nil {
			t.Fatalf("OnWrite: %v", err)
		}
		if !w.Protected {
			t.Fatal("line with free MAC field not protected")
		}

		// Invariant 2: clean roundtrip.
		r := g.OnRead(w.Line, addr, true)
		replay(w.Line, r)
		if r.CheckFailed {
			t.Fatal("clean DRAM image failed verification")
		}
		if !r.Stripped {
			t.Fatal("verified line not stripped")
		}
		if r.Line != line {
			t.Fatalf("strip did not restore the original:\n want %v\n got  %v", line, r.Line)
		}

		// Invariants 3 and 4: single-bit flip in the DRAM image.
		bit := int(flipBit) % (pte.LineBytes * 8)
		flipped := w.Line
		flipped[bit/64] = pte.Entry(uint64(flipped[bit/64]) ^ 1<<uint(bit%64))
		covered := (format.ProtectedMask|format.MACMask)>>uint(bit%64)&1 == 1
		r2 := g.OnRead(flipped, addr, true)
		replay(flipped, r2)
		if covered && !r2.CheckFailed {
			t.Fatalf("flip of covered bit %d passed verification", bit)
		}
		if !covered {
			if r2.CheckFailed {
				t.Fatalf("flip of uncovered bit %d raised a false alarm", bit)
			}
			for i := range r2.Line {
				if uint64(r2.Line[i])&format.ProtectedMask != uint64(line[i])&format.ProtectedMask {
					t.Fatalf("uncovered flip at bit %d corrupted protected payload of PTE %d", bit, i)
				}
			}
		}
	})
}
