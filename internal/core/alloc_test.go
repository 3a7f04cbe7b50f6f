package core

import (
	"testing"

	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

// The Guard's write (pattern match + MAC embed) and page-table-walk verify
// paths are exercised on every simulated DRAM access; these gates pin them
// to zero heap allocations per operation.

var (
	sinkWrite WriteResult
	sinkRead  ReadResult
)

func TestGuardWriteZeroAlloc(t *testing.T) {
	g := newTestGuard(t, nil)
	line := makePTELine(0xBEEF00, testFlags, pte.PTEsPerLine)
	if n := testing.AllocsPerRun(200, func() {
		w, err := g.OnWrite(line, 0x4000)
		if err != nil {
			t.Fatal(err)
		}
		sinkWrite = w
	}); n != 0 {
		t.Errorf("OnWrite (protected) allocates %.1f objects/op, want 0", n)
	}
}

func TestGuardWriteUnprotectedZeroAlloc(t *testing.T) {
	g := newTestGuard(t, nil)
	// A line with MAC-field bits set fails the pattern match and takes the
	// collision-check branch (one MAC compute + field compare).
	var line pte.Line
	for i := range line {
		line[i] = pte.Entry(testFlags | pte.MaskMAC).WithPFN(0x100 + uint64(i))
	}
	if n := testing.AllocsPerRun(200, func() {
		w, err := g.OnWrite(line, 0x4000)
		if err != nil {
			t.Fatal(err)
		}
		sinkWrite = w
	}); n != 0 {
		t.Errorf("OnWrite (collision check) allocates %.1f objects/op, want 0", n)
	}
}

// TestGuardUnsealedWriteAndAuditZeroAlloc gates the table-flush write and
// the audit scrub.
func TestGuardUnsealedWriteAndAuditZeroAlloc(t *testing.T) {
	g := newTestGuard(t, nil)
	line := makePTELine(0xBEEF00, testFlags, pte.PTEsPerLine)
	protected := writePTE(t, g, line, 0x4000)
	if n := testing.AllocsPerRun(200, func() {
		w, err := g.OnWriteUnsealed(line, 0x4000)
		if err != nil {
			t.Fatal(err)
		}
		sinkWrite = w
	}); n != 0 {
		t.Errorf("OnWriteUnsealed allocates %.1f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if !g.Audit(protected, 0x4000) {
			t.Fatal("clean line failed the audit")
		}
	}); n != 0 {
		t.Errorf("Audit allocates %.1f objects/op, want 0", n)
	}
}

func TestGuardWalkReadZeroAlloc(t *testing.T) {
	g := newTestGuard(t, nil)
	line := makePTELine(0xBEEF00, testFlags, pte.PTEsPerLine)
	protected := writePTE(t, g, line, 0x4000)
	if n := testing.AllocsPerRun(200, func() {
		rd := g.OnRead(protected, 0x4000, true)
		if rd.CheckFailed {
			t.Fatal("clean line failed verification")
		}
		sinkRead = rd
	}); n != 0 {
		t.Errorf("OnRead (PTE walk verify+strip) allocates %.1f objects/op, want 0", n)
	}
}

func TestGuardDataReadZeroAlloc(t *testing.T) {
	g := newTestGuard(t, nil)
	line := makePTELine(0xBEEF00, testFlags, pte.PTEsPerLine)
	protected := writePTE(t, g, line, 0x4000)
	if n := testing.AllocsPerRun(200, func() {
		sinkRead = g.OnRead(protected, 0x4000, false)
	}); n != 0 {
		t.Errorf("OnRead (data path) allocates %.1f objects/op, want 0", n)
	}
}

func TestIncrementalCorrectionZeroAlloc(t *testing.T) {
	g := correctionGuard(t, nil)
	line := makePTELine(0xBEEF00, testFlags, pte.PTEsPerLine)
	protected := writePTE(t, g, line, 0x4000)
	// One payload flip: correction succeeds via step-2 flip-and-check.
	faultyCorrectable := flipBit(protected, 3, pte.BitWritable)
	// Heavy corruption: the search runs to GMax and fails.
	faultyDead := protected
	for i := range faultyDead {
		faultyDead[i] = pte.Entry(uint64(faultyDead[i]) ^ 0x3FF<<12)
	}
	if n := testing.AllocsPerRun(100, func() {
		rd := g.OnRead(faultyCorrectable, 0x4000, true)
		if !rd.Corrected {
			t.Fatal("single payload flip not corrected")
		}
		sinkRead = rd
	}); n != 0 {
		t.Errorf("correction (successful guess) allocates %.1f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		sinkRead = g.OnRead(faultyDead, 0x4000, true)
	}); n != 0 {
		t.Errorf("correction (exhausted search) allocates %.1f objects/op, want 0", n)
	}
}

// TestIncrementalCorrectionEquivalence drives a fuzz-style corpus of faulty
// lines through the correction search and asserts that every corrected
// line serves the original protected payload — the per-chunk cipher cache
// must be a pure optimisation (mac's TestComputeDeltaMatchesCompute and
// FuzzComputeDelta pin each incremental tag to Compute).
// It also asserts the cipher-work saving the cache exists for: the guard
// must spend well under half the chunk encryptions that one full MAC per
// logical verification would cost.
func TestIncrementalCorrectionEquivalence(t *testing.T) {
	g := correctionGuard(t, nil)
	protected := g.cfg.Format.ProtectedMask

	r := stats.NewRNG(0x16C4)
	const trials = 300
	corrected := 0
	for trial := 0; trial < trials; trial++ {
		// Mix realistic contiguous lines with arbitrary payloads, like the
		// FuzzMACEmbedVerifyStrip corpus.
		var line pte.Line
		if trial%3 == 0 {
			for i := range line {
				line[i] = pte.Entry(r.Uint64() &^ (pte.MaskMAC | pte.MaskIdentifier | 1<<pte.BitAccessed))
			}
		} else {
			line = makePTELine(r.Uint64()&0xFFFFF, testFlags, 1+r.Intn(pte.PTEsPerLine))
		}
		addr := (r.Uint64() & 0xFFFF_FFC0)
		w, err := g.OnWrite(line, addr)
		if err != nil || !w.Protected {
			continue
		}
		faulty := w.Line
		for i, n := 0, 1+r.Intn(12); i < n; i++ {
			faulty = flipBit(faulty, r.Intn(pte.PTEsPerLine), r.Intn(64))
		}
		got := g.OnRead(faulty, addr, true)
		if !got.Corrected {
			continue
		}
		corrected++
		for i := range line {
			if uint64(got.Line[i])&protected != uint64(line[i])&protected {
				t.Fatalf("trial %d: corrected line serves PTE %d = %#x, want protected bits of %#x",
					trial, i, uint64(got.Line[i]), uint64(line[i]))
			}
		}
	}
	if corrected == 0 {
		t.Fatal("corpus never exercised a successful correction")
	}

	c := g.Counters()
	full := (c.WriteMACComputes + c.ReadMACComputes) * uint64(g.auth.Chunks())
	if c.ChunkEncrypts*2 >= full {
		t.Errorf("guard spent %d chunk encryptions vs %d for one full MAC per verification: expected well under half",
			c.ChunkEncrypts, full)
	}
	t.Logf("chunk encryptions: %d vs %d full-MAC (%.2fx saving) over %d guesses, %d corrections",
		c.ChunkEncrypts, full, float64(full)/float64(c.ChunkEncrypts), c.CorrectionGuesses, corrected)
}
