package core

import (
	"math/bits"
	"testing"

	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

func correctionGuard(tb testing.TB, mutate func(*Config)) *Guard {
	tb.Helper()
	return newTestGuard(tb, func(c *Config) {
		c.EnableCorrection = true
		c.SoftMatchK = 4
		if mutate != nil {
			mutate(c)
		}
	})
}

// writePTE writes the line and returns the protected DRAM image.
func writePTE(tb testing.TB, g *Guard, line pte.Line, addr uint64) pte.Line {
	tb.Helper()
	w, err := g.OnWrite(line, addr)
	if err != nil {
		tb.Fatal(err)
	}
	if !w.Protected {
		tb.Fatal("test line did not match the protection pattern")
	}
	return w.Line
}

func TestGMaxMatchesPaper(t *testing.T) {
	g := correctionGuard(t, nil)
	if got := g.GMax(); got != 372 {
		t.Errorf("GMax = %d, want 372 (§VI-D)", got)
	}
}

func TestCorrectSingleMACBitFlip(t *testing.T) {
	// Step 1: flips confined to the MAC field pass the soft retry.
	g := correctionGuard(t, nil)
	line := makePTELine(0x52AA00, testFlags, 8)
	img := writePTE(t, g, line, 0x4000)
	tampered := flipBit(img, 2, 43) // inside bits 51:40
	rd := g.OnRead(tampered, 0x4000, true)
	if rd.CheckFailed || !rd.Corrected {
		t.Fatalf("MAC-bit flip not corrected: %+v", rd)
	}
	if rd.Line != line {
		t.Error("corrected line differs from original")
	}
	if rd.Guesses != 1 {
		t.Errorf("guesses = %d, want 1 (soft retry)", rd.Guesses)
	}
}

func TestCorrectUpToKMACBitFlips(t *testing.T) {
	g := correctionGuard(t, nil)
	line := makePTELine(0x52AA00, testFlags, 8)
	img := writePTE(t, g, line, 0x4000)
	tampered := img
	for _, b := range []int{40, 45, 48, 51} { // 4 flips, spread over PTEs
		tampered = flipBit(tampered, b%8, b)
	}
	rd := g.OnRead(tampered, 0x4000, true)
	if rd.CheckFailed || rd.Line != line {
		t.Error("4 MAC-bit flips not corrected with k=4")
	}
}

func TestCorrectSinglePayloadBitFlip(t *testing.T) {
	// Step 2 (flip and check) repairs any single protected-bit flip, for
	// every protected bit position.
	g := correctionGuard(t, nil)
	line := makePTELine(0x6F1200, testFlags, 8)
	img := writePTE(t, g, line, 0x8000)
	f := g.cfg.Format
	m := f.ProtectedMask
	for m != 0 {
		b := bits.TrailingZeros64(m)
		m &= m - 1
		tampered := flipBit(img, 5, b)
		rd := g.OnRead(tampered, 0x8000, true)
		if rd.CheckFailed || rd.Line != line {
			t.Fatalf("single payload flip at bit %d not corrected", b)
		}
	}
}

func TestCorrectPayloadPlusMACFlip(t *testing.T) {
	// Flip-and-check combined with the soft match handles one payload
	// flip alongside MAC-field faults.
	g := correctionGuard(t, nil)
	line := makePTELine(0x111100, testFlags, 8)
	img := writePTE(t, g, line, 0xC000)
	tampered := flipBit(flipBit(img, 3, 17), 6, 44)
	rd := g.OnRead(tampered, 0xC000, true)
	if rd.CheckFailed || rd.Line != line {
		t.Error("payload+MAC flip pair not corrected")
	}
}

func TestCorrectAlmostZeroPTE(t *testing.T) {
	// Step 3: a zero PTE that picked up a few flips is reset to zero.
	g := correctionGuard(t, nil)
	line := makePTELine(0x898900, testFlags, 5) // PTEs 5..7 are zero
	img := writePTE(t, g, line, 0x2000)
	tampered := img
	for _, b := range []int{3, 15, 27} { // 3 flips in a zero PTE
		tampered = flipBit(tampered, 6, b)
	}
	rd := g.OnRead(tampered, 0x2000, true)
	if rd.CheckFailed || rd.Line != line {
		t.Error("corrupted zero PTE not reset")
	}
}

func TestCorrectFlagsByMajorityVote(t *testing.T) {
	// Step 4: two flag flips in one PTE exceed flip-and-check but match
	// the majority flag pattern of the line (Insight 3).
	g := correctionGuard(t, nil)
	line := makePTELine(0x770000, testFlags, 8)
	img := writePTE(t, g, line, 0x3000)
	tampered := flipBit(flipBit(img, 4, pte.BitWritable), 4, pte.BitGlobal)
	rd := g.OnRead(tampered, 0x3000, true)
	if rd.CheckFailed || rd.Line != line {
		t.Error("flag corruption not fixed by majority vote")
	}
}

func TestCorrectPFNByContiguity(t *testing.T) {
	// Step 5: two PFN flips in one PTE of a contiguous run are rebuilt
	// from a neighbouring base (Insight 2).
	g := correctionGuard(t, nil)
	line := makePTELine(0x9990A0, testFlags, 8)
	img := writePTE(t, g, line, 0x5000)
	tampered := flipBit(flipBit(img, 2, 12), 2, 14) // low PFN bits
	rd := g.OnRead(tampered, 0x5000, true)
	if rd.CheckFailed || rd.Line != line {
		t.Error("PFN corruption not fixed by contiguity")
	}
}

func TestCorrectTopPFNByMajority(t *testing.T) {
	// Step 5 first guess: a flipped high PFN bit is restored by the
	// top-20 majority vote.
	g := correctionGuard(t, nil)
	line := makePTELine(0xABC0F0, testFlags, 8)
	img := writePTE(t, g, line, 0x5100)
	tampered := flipBit(flipBit(img, 1, 30), 1, 35) // two high-PFN flips
	rd := g.OnRead(tampered, 0x5100, true)
	if rd.CheckFailed || rd.Line != line {
		t.Error("high-PFN corruption not fixed by top majority")
	}
}

func TestCorrectFlagsAndPFNTogether(t *testing.T) {
	// Steps 4∧5 combined: flag flips and PFN flips in different PTEs.
	g := correctionGuard(t, nil)
	line := makePTELine(0x414100, testFlags, 8)
	img := writePTE(t, g, line, 0x5200)
	tampered := flipBit(flipBit(img, 3, pte.BitWritable), 3, pte.BitPresent)
	tampered = flipBit(flipBit(tampered, 5, 13), 5, 16)
	rd := g.OnRead(tampered, 0x5200, true)
	if rd.CheckFailed || rd.Line != line {
		t.Error("combined flag+PFN corruption not fixed")
	}
}

func TestUncorrectableRaisesException(t *testing.T) {
	// Massive corruption beyond every strategy must still be *detected*.
	g := correctionGuard(t, nil)
	line := makePTELine(0xF0F000, testFlags, 8)
	img := writePTE(t, g, line, 0x6000)
	r := stats.NewRNG(42)
	tampered := img
	for i := 0; i < 40; i++ {
		tampered = flipBit(tampered, r.Intn(8), r.Intn(40))
	}
	rd := g.OnRead(tampered, 0x6000, true)
	if rd.Corrected {
		// A correction must still reproduce the exact original — a
		// different result would be a miscorrection.
		if rd.Line != line {
			t.Fatal("MISCORRECTION: corrected line differs from original")
		}
		return
	}
	if !rd.CheckFailed {
		t.Fatal("heavy corruption neither corrected nor detected")
	}
	if rd.Guesses > g.GMax() {
		t.Errorf("guesses %d exceeded GMax %d", rd.Guesses, g.GMax())
	}
}

func TestNoMiscorrectionUnderRandomFaults(t *testing.T) {
	// §VI-D: miscorrection probability is a MAC collision. Inject random
	// faults at a high rate and verify every "corrected" outcome equals
	// the original line exactly, and every other outcome is a detection.
	g := correctionGuard(t, nil)
	r := stats.NewRNG(2024)
	const trials = 300
	detected, corrected := 0, 0
	for trial := 0; trial < trials; trial++ {
		line := makePTELine(uint64(0x100000+trial*8), testFlags, 8)
		addr := uint64(0x40000 + trial*64)
		img := writePTE(t, g, line, addr)
		tampered := img
		flips := 1 + r.Intn(6)
		for i := 0; i < flips; i++ {
			bit := r.Intn(512)
			tampered = flipBit(tampered, bit/64, bit%64)
		}
		if tampered == img {
			continue
		}
		rd := g.OnRead(tampered, addr, true)
		// The MAC covers ProtectedMask bits; the accessed bit and the
		// ignored field 58:52 are architecturally uncovered in the
		// base design (Table IV) and may legitimately differ.
		cmp := g.cfg.Format.ProtectedMask
		switch {
		case rd.Corrected:
			corrected++
			for i := range rd.Line {
				if uint64(rd.Line[i])&cmp != uint64(line[i])&cmp {
					t.Fatalf("trial %d: miscorrection in protected bits", trial)
				}
				if uint64(rd.Line[i])&g.cfg.Format.MACMask != 0 {
					t.Fatalf("trial %d: MAC field not stripped", trial)
				}
			}
		case rd.CheckFailed:
			detected++
		default:
			// Flips confined to MAC/identifier fields can verify
			// via soft match and strip cleanly; the protected
			// payload must still match.
			for i := range rd.Line {
				if uint64(rd.Line[i])&cmp != uint64(line[i])&cmp {
					t.Fatalf("trial %d: silent acceptance of tampering", trial)
				}
			}
		}
	}
	if corrected == 0 {
		t.Error("no corrections exercised; test is vacuous")
	}
	t.Logf("corrected=%d detected=%d of %d faulty lines", corrected, detected, trials)
}

func TestCorrectionDisabledJustDetects(t *testing.T) {
	g := newTestGuard(t, nil) // correction off
	line := makePTELine(0x123400, testFlags, 8)
	img := writePTE(t, g, line, 0x7000)
	rd := g.OnRead(flipBit(img, 0, 14), 0x7000, true)
	if !rd.CheckFailed || rd.Corrected || rd.Guesses != 0 {
		t.Errorf("detection-only guard misbehaved: %+v", rd)
	}
}

func TestCorrectionWithZeroMACOptimization(t *testing.T) {
	// A zero line protected by MAC-zero must be correctable too.
	g := correctionGuard(t, func(c *Config) { c.OptZeroMAC = true })
	var zero pte.Line
	w, err := g.OnWrite(zero, 0x8800)
	if err != nil {
		t.Fatal(err)
	}
	tampered := flipBit(w.Line, 3, 21) // payload flip in a zero line
	rd := g.OnRead(tampered, 0x8800, true)
	if rd.CheckFailed || rd.Line != zero {
		t.Error("zero-line payload flip not corrected under MAC-zero")
	}
}

func TestNoMiscorrectionOptimizedFullLine(t *testing.T) {
	// With the identifier optimization the reserved bits 58:52 are owned
	// by PT-Guard and stripped, so a corrected line must reproduce the
	// original exactly (modulo the accessed bit).
	g := correctionGuard(t, func(c *Config) {
		c.OptIdentifier = true
		c.Identifier = 0x77665544332211
	})
	r := stats.NewRNG(909)
	corrected := 0
	for trial := 0; trial < 200; trial++ {
		line := makePTELine(uint64(0x200000+trial*8), testFlags, 8)
		addr := uint64(0x80000 + trial*64)
		img := writePTE(t, g, line, addr)
		tampered := img
		for i, flips := 0, 1+r.Intn(5); i < flips; i++ {
			bit := r.Intn(512)
			tampered = flipBit(tampered, bit/64, bit%64)
		}
		rd := g.OnRead(tampered, addr, true)
		if !rd.Corrected {
			continue
		}
		corrected++
		for i := range rd.Line {
			got := uint64(rd.Line[i]) &^ pte.MaskAccessed
			want := uint64(line[i]) &^ pte.MaskAccessed
			if got != want {
				t.Fatalf("trial %d entry %d: got %#x want %#x", trial, i, got, want)
			}
		}
	}
	if corrected == 0 {
		t.Error("no corrections exercised; test is vacuous")
	}
}

func TestAblationDisableFlipAndCheck(t *testing.T) {
	g := correctionGuard(t, func(c *Config) { c.DisableFlipAndCheck = true })
	line := makePTELine(0x313000, testFlags, 8)
	img := writePTE(t, g, line, 0x9000)
	// A single payload flip would normally be fixed by step 2; with the
	// step disabled it falls through to contiguity (PFN flips still fix).
	rd := g.OnRead(flipBit(img, 2, 13), 0x9000, true)
	if rd.CheckFailed {
		t.Error("PFN flip not recovered by later strategies")
	}
	// A single *flag* flip in one PTE is majority-correctable too; but a
	// flip in protection keys of one PTE with uniform neighbours is fixed
	// by the flag vote. Pick a case nothing later covers: a single flip
	// in a line with only one non-zero PTE (no vote, no contiguity).
	lone := makePTELine(0x717000, testFlags, 1)
	loneImg := writePTE(t, g, lone, 0x9400)
	rd = g.OnRead(flipBit(loneImg, 0, 20), 0x9400, true)
	if !rd.CheckFailed {
		t.Error("lone-PTE flip corrected despite flip-and-check disabled")
	}
	// Sanity: the full engine handles it.
	full := correctionGuard(t, nil)
	fullImg := writePTE(t, full, lone, 0x9400)
	rd = full.OnRead(flipBit(fullImg, 0, 20), 0x9400, true)
	if rd.CheckFailed {
		t.Error("full engine failed the lone-PTE flip")
	}
}

func TestAblationDisableZeroReset(t *testing.T) {
	g := correctionGuard(t, func(c *Config) { c.DisableZeroReset = true })
	line := makePTELine(0x515000, testFlags, 5)
	img := writePTE(t, g, line, 0xA000)
	tampered := img
	for _, b := range []int{3, 15, 27} { // 3 flips in a zero PTE
		tampered = flipBit(tampered, 6, b)
	}
	rd := g.OnRead(tampered, 0xA000, true)
	if !rd.CheckFailed {
		t.Error("zero-PTE corruption corrected despite zero reset disabled")
	}
}

func TestAblationDisableContiguity(t *testing.T) {
	g := correctionGuard(t, func(c *Config) { c.DisableContiguity = true })
	line := makePTELine(0x616000, testFlags, 8)
	img := writePTE(t, g, line, 0xB000)
	tampered := flipBit(flipBit(img, 2, 12), 2, 14) // 2 PFN flips
	rd := g.OnRead(tampered, 0xB000, true)
	if !rd.CheckFailed {
		t.Error("PFN corruption corrected despite contiguity disabled")
	}
	if rd.Guesses >= g.GMax() {
		t.Errorf("guesses %d should shrink with a stage disabled", rd.Guesses)
	}
}

func TestAblationDisableFlagVote(t *testing.T) {
	g := correctionGuard(t, func(c *Config) { c.DisableFlagVote = true })
	line := makePTELine(0x818000, testFlags, 8)
	img := writePTE(t, g, line, 0xC800)
	tampered := flipBit(flipBit(img, 4, pte.BitWritable), 4, pte.BitGlobal)
	rd := g.OnRead(tampered, 0xC800, true)
	if !rd.CheckFailed {
		t.Error("flag corruption corrected despite flag vote disabled")
	}
}

func TestCorrectAllZeroLine(t *testing.T) {
	// Edge case: the all-zero line (64% of real PTEs are zero, Insight 1).
	// A small scatter of flips across several zero PTEs defeats
	// flip-and-check (multiple corrupted entries) but the zero-reset
	// guess restores the whole line in one step.
	g := correctionGuard(t, nil)
	line := pte.Line{}
	img := writePTE(t, g, line, 0xA000)
	tampered := flipBit(img, 0, pte.BitPresent)
	tampered = flipBit(tampered, 3, 14) // low PFN bit
	tampered = flipBit(tampered, 6, pte.BitNX)
	rd := g.OnRead(tampered, 0xA000, true)
	if rd.CheckFailed || !rd.Corrected {
		t.Fatalf("scattered flips on the zero line not corrected: %+v", rd)
	}
	if rd.Line != line {
		t.Fatal("correction did not restore the all-zero line")
	}
	if got := g.Counters().Corrections; got != 1 {
		t.Errorf("Corrections counter = %d, want 1", got)
	}
}

func TestZeroResetBoundary(t *testing.T) {
	// The zero-reset guess fires for PTEs with at most ZeroResetMaxBits
	// protected bits set. Exactly at the threshold it must still fire;
	// one bit above, the PTE is no longer "almost zero" and the engine
	// must not zero it (it would be a miscorrection if a soft MAC
	// collision let it through — instead the line is detected).
	g := correctionGuard(t, nil) // default ZeroResetMaxBits = 4
	line := pte.Line{}
	img := writePTE(t, g, line, 0xB000)

	at := img
	for _, b := range []int{0, 1, 14, 63} { // exactly 4 protected bits
		at = flipBit(at, 2, b)
	}
	rd := g.OnRead(at, 0xB000, true)
	if rd.CheckFailed || !rd.Corrected || rd.Line != line {
		t.Fatalf("4 flips in one zero PTE (== ZeroResetMaxBits) not corrected: %+v", rd)
	}

	above := img
	for _, b := range []int{0, 1, 2, 14, 63} { // 5 bits: above threshold
		above = flipBit(above, 2, b)
	}
	rd = g.OnRead(above, 0xB000, true)
	if rd.Corrected {
		t.Fatalf("5 flips above the zero-reset threshold claimed corrected: %+v", rd)
	}
	if !rd.CheckFailed {
		t.Fatal("uncorrectable line not detected")
	}
}

func TestFailedCorrectionBurnsExactlyGMax(t *testing.T) {
	// The guess budget boundary: a correction that exhausts every
	// strategy must burn exactly GMax = 372 guesses (§VI-D) — no early
	// exit miscounting, no overrun — and the counters must record the
	// failure, not a correction.
	g := correctionGuard(t, nil)
	line := makePTELine(0x3C3000, testFlags, 8)
	img := writePTE(t, g, line, 0xD000)
	r := stats.NewRNG(7)
	tampered := img
	for i := 0; i < 48; i++ {
		tampered = flipBit(tampered, r.Intn(8), r.Intn(40))
	}
	rd := g.OnRead(tampered, 0xD000, true)
	if rd.Corrected {
		t.Skip("seed produced a correctable pattern; boundary not reached")
	}
	if !rd.CheckFailed {
		t.Fatal("heavy corruption not detected")
	}
	if rd.Guesses != g.GMax() {
		t.Errorf("failed correction burned %d guesses, want exactly GMax = %d", rd.Guesses, g.GMax())
	}
	ctr := g.Counters()
	if ctr.Corrections != 0 || ctr.VerifyFailures != 1 {
		t.Errorf("counters = %+v, want 0 corrections and 1 verify failure", ctr)
	}
	if ctr.CorrectionGuesses != uint64(g.GMax()) {
		t.Errorf("CorrectionGuesses = %d, want %d", ctr.CorrectionGuesses, g.GMax())
	}
}

func TestMiscorrectionAccountingOnSoftMatchCollision(t *testing.T) {
	// With a tiny 8-bit MAC and k=4, soft matches accept any candidate
	// whose tag lands within Hamming distance 4 of the stored tag: two
	// different candidates can both soft-match, and the engine serves the
	// first one it guesses. The Guard *believes* it corrected — the
	// Corrections counter increments — even when the served payload is
	// wrong. Only a ground-truth oracle can expose these (internal/fault).
	g := correctionGuard(t, func(c *Config) { c.TagBits = 8 })
	r := stats.NewRNG(99)
	miscorrections, corrections := 0, 0
	for trial := 0; trial < 200; trial++ {
		line := makePTELine(uint64(0x200000+trial*8), testFlags, 8)
		addr := uint64(0x80000 + trial*64)
		img := writePTE(t, g, line, addr)
		tampered := img
		for i := 0; i < 3; i++ { // 3 flips: beyond single-flip repair
			tampered = flipBit(tampered, r.Intn(8), r.Intn(40))
		}
		before := g.Counters().Corrections
		rd := g.OnRead(tampered, addr, true)
		claimed := g.Counters().Corrections > before
		if rd.Corrected != claimed {
			t.Fatalf("trial %d: ReadResult.Corrected=%t but counter delta=%t", trial, rd.Corrected, claimed)
		}
		if rd.Corrected {
			corrections++
			if rd.Line != line {
				miscorrections++
			}
		}
	}
	if miscorrections == 0 {
		t.Fatalf("8-bit MAC produced no miscorrection in 200 trials (%d claimed corrections): "+
			"soft-match collision accounting not exercised", corrections)
	}
	t.Logf("8-bit MAC: %d claimed corrections, %d of them miscorrections", corrections, miscorrections)
}
