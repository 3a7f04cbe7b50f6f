package baseline

import (
	"testing"
	"testing/quick"

	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

func TestSecWalkDetectsSmallErrors(t *testing.T) {
	var s SecWalk
	r := stats.NewRNG(1)
	for trial := 0; trial < 2000; trial++ {
		e := pte.Entry(r.Uint64())
		nFlips := 1 + r.Intn(4)
		flips := make([]int, 0, nFlips)
		seen := map[int]bool{}
		for len(flips) < nFlips {
			b := r.Intn(64)
			if !seen[b] {
				seen[b] = true
				flips = append(flips, b)
			}
		}
		if !s.Detects(e, flips) {
			t.Fatalf("random %d-bit error %v undetected", nFlips, flips)
		}
	}
}

func TestSecWalkChecksumLinearity(t *testing.T) {
	var s SecWalk
	f := func(a, b uint64) bool {
		return s.Checksum(pte.Entry(a))^s.Checksum(pte.Entry(b)) ==
			s.Checksum(pte.Entry(a^b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSecWalkCraftedEscape(t *testing.T) {
	// §II-E: a surgical multi-bit pattern (a shifted generator
	// polynomial) fools the linear EDC — the ECCploit analogy.
	var s SecWalk
	r := stats.NewRNG(2)
	for _, shift := range []int{0, 5, 20, 37} {
		pattern, err := s.CraftEscape(shift)
		if err != nil {
			t.Fatal(err)
		}
		if len(pattern) <= 4 {
			t.Fatalf("escape pattern has %d flips; must exceed SecWalk's 4-flip guarantee", len(pattern))
		}
		e := pte.Entry(r.Uint64())
		if s.Detects(e, pattern) {
			t.Errorf("crafted pattern at shift %d was detected", shift)
		}
	}
	if _, err := s.CraftEscape(60); err == nil {
		t.Error("out-of-range shift accepted")
	}
}

func TestMonotonicPointersBlocksPFNAttack(t *testing.T) {
	m, err := NewMonotonicPointers(0x80000) // tables above 2 GB
	if err != nil {
		t.Fatal(err)
	}
	// A user PTE below the watermark.
	e := pte.Entry(0x107).WithPFN(0x4321)
	// Any 1->0 PFN flip decreases the PFN: prevented.
	out := m.EvaluateFlip(e, 12) // PFN bit 0, currently 1
	if !out.Prevented {
		t.Errorf("1->0 PFN flip not prevented: %s", out.Reason)
	}
	// A 0->1 flip cannot happen in true cells: prevented by placement.
	out = m.EvaluateFlip(e, 30)
	if !out.Prevented {
		t.Errorf("0->1 PFN flip outcome: %s", out.Reason)
	}
}

func TestMonotonicPointersMissesMetadata(t *testing.T) {
	// §VIII-C: the gap PT-Guard closes — metadata flips go through.
	m, _ := NewMonotonicPointers(0x80000)
	e := pte.Entry(0x107).WithPFN(0x4321)
	for _, bit := range []int{pte.BitUserAccessible, pte.BitWritable, pte.BitNX, 60} {
		out := m.EvaluateFlip(e, bit)
		if out.Prevented {
			t.Errorf("metadata bit %d wrongly reported protected", bit)
		}
	}
	if m.ProtectsMetadata() {
		t.Error("ProtectsMetadata must be false")
	}
	if _, err := NewMonotonicPointers(0); err == nil {
		t.Error("zero watermark accepted")
	}
}

func TestSECDEDRoundTrip(t *testing.T) {
	var s SECDED
	f := func(data uint64) bool {
		got, status, err := s.Decode(s.Encode(data))
		return err == nil && status == DecodeOK && got == data
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSECDEDCorrectsEverySingleBit(t *testing.T) {
	var s SECDED
	const data = 0xDEADBEEFCAFEF00D
	cw := s.Encode(data)
	for p := 1; p <= CodewordBits; p++ {
		got, status, err := s.Decode(cw.Flip(p))
		if err != nil {
			t.Fatalf("position %d: %v", p, err)
		}
		if status != DecodeCorrected || got != data {
			t.Fatalf("position %d: status=%v got=%#x", p, status, got)
		}
	}
}

func TestSECDEDDetectsDoubleBit(t *testing.T) {
	var s SECDED
	cw := s.Encode(0x0123456789ABCDEF)
	r := stats.NewRNG(3)
	for trial := 0; trial < 500; trial++ {
		a := 1 + r.Intn(CodewordBits)
		b := 1 + r.Intn(CodewordBits)
		if a == b {
			continue
		}
		_, status, _ := s.Decode(cw.Flip(a).Flip(b))
		if status != DecodeUncorrectable {
			t.Fatalf("double error (%d,%d) status = %v", a, b, status)
		}
	}
}

func TestSECDEDMiscorrectsSomeTripleBit(t *testing.T) {
	// The structural ECC weakness (§VIII-D): some 3-bit patterns alias a
	// single-bit syndrome and silently deliver wrong data — impossible
	// with a cryptographic MAC.
	var s SECDED
	const data = 0x5555AAAA3333CCCC
	cw := s.Encode(data)
	r := stats.NewRNG(4)
	miscorrections := 0
	for trial := 0; trial < 3000; trial++ {
		tampered := cw
		seen := map[int]bool{}
		for len(seen) < 3 {
			p := 1 + r.Intn(CodewordBits)
			if !seen[p] {
				seen[p] = true
				tampered = tampered.Flip(p)
			}
		}
		got, status, err := s.Decode(tampered)
		if err != nil {
			continue
		}
		if status == DecodeCorrected && got != data {
			miscorrections++
		}
	}
	if miscorrections == 0 {
		t.Error("no 3-bit miscorrections observed; SECDED model too strong")
	}
}

func TestCodewordFlipBounds(t *testing.T) {
	var s SECDED
	cw := s.Encode(42)
	if cw.Flip(0) != cw || cw.Flip(73) != cw {
		t.Error("out-of-range flip changed the codeword")
	}
	if HammingDistance(cw, cw.Flip(7)) != 1 {
		t.Error("HammingDistance wrong")
	}
}
