package core

import (
	"strings"
	"testing"
	"testing/quick"

	"ptguard/internal/mac"
	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

func testKey() []byte {
	key := make([]byte, mac.KeySize)
	r := stats.NewRNG(0xA11CE)
	for i := range key {
		key[i] = byte(r.Uint64())
	}
	return key
}

func testFormat(tb testing.TB) pte.Format {
	tb.Helper()
	f, err := pte.FormatX86(40)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

func newTestGuard(tb testing.TB, mutate func(*Config)) *Guard {
	tb.Helper()
	cfg := Config{Format: testFormat(tb), Key: testKey()}
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := NewGuard(cfg)
	if err != nil {
		tb.Fatalf("NewGuard: %v", err)
	}
	return g
}

// makePTELine builds a realistic PTE line: contiguous PFNs, uniform flags,
// MAC/identifier/ignored fields zero (as the trusted kernel writes them).
func makePTELine(basePFN uint64, flags uint64, valid int) pte.Line {
	var l pte.Line
	for i := 0; i < valid; i++ {
		l[i] = pte.Entry(flags).WithPFN(basePFN + uint64(i))
	}
	return l
}

const testFlags = uint64(1)<<pte.BitPresent | 1<<pte.BitWritable |
	1<<pte.BitUserAccessible | 1<<pte.BitGlobal

func TestNewGuardValidation(t *testing.T) {
	f := testFormat(t)
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
		// wantMsg, when set, must appear in the error.
		wantMsg string
	}{
		{name: "ok", cfg: Config{Format: f, Key: testKey()}},
		{name: "no format", cfg: Config{Key: testKey()}, wantErr: true},
		{name: "bad key", cfg: Config{Format: f, Key: []byte{1}}, wantErr: true},
		{name: "tag too wide", cfg: Config{Format: f, Key: testKey(), TagBits: 128}, wantErr: true},
		{name: "negative tag", cfg: Config{Format: f, Key: testKey(), TagBits: -8}, wantErr: true, wantMsg: "tag width -8"},
		{name: "bad soft k", cfg: Config{Format: f, Key: testKey(), SoftMatchK: -1}, wantErr: true},
		{name: "64-bit tag ok", cfg: Config{Format: f, Key: testKey(), TagBits: 64}},
		{name: "negative CTB", cfg: Config{Format: f, Key: testKey(), CTBEntries: -3}, wantErr: true, wantMsg: "CTB size -3"},
		{name: "negative MAC latency", cfg: Config{Format: f, Key: testKey(), MACLatencyCycles: -5}, wantErr: true, wantMsg: "MAC latency -5"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewGuard(tt.cfg)
			if (err != nil) != tt.wantErr {
				t.Errorf("err = %v, wantErr %v", err, tt.wantErr)
			}
			if err != nil && !strings.Contains(err.Error(), tt.wantMsg) {
				t.Errorf("err = %v, want it to name %q", err, tt.wantMsg)
			}
		})
	}
}

func TestWriteEmbedsMACInPTELine(t *testing.T) {
	g := newTestGuard(t, nil)
	line := makePTELine(0x1234500, testFlags, 8)
	res, err := g.OnWrite(line, 0x4000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Protected || !res.MACComputed {
		t.Fatalf("PTE line not protected: %+v", res)
	}
	if fieldIsZero(res.Line, g.cfg.Format.MACMask) {
		t.Error("MAC field still zero after embedding")
	}
	// Architectural bits must be untouched.
	for i := range line {
		if uint64(res.Line[i])&^g.cfg.Format.MACMask != uint64(line[i]) {
			t.Fatalf("PTE %d architectural bits changed", i)
		}
	}
}

func TestWriteLeavesUnmatchedDataAlone(t *testing.T) {
	g := newTestGuard(t, nil)
	r := stats.NewRNG(1)
	var line pte.Line
	for i := range line {
		line[i] = pte.Entry(r.Uint64() | pte.MaskMAC) // MAC field busy
	}
	res, err := g.OnWrite(line, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Protected {
		t.Error("non-matching line marked protected")
	}
	if res.Line != line {
		t.Error("non-matching line modified on write")
	}
}

func TestReadPTERoundTrip(t *testing.T) {
	g := newTestGuard(t, nil)
	line := makePTELine(0xBEEF00, testFlags, 8)
	w, err := g.OnWrite(line, 0x10040)
	if err != nil {
		t.Fatal(err)
	}
	rd := g.OnRead(w.Line, 0x10040, true)
	if rd.CheckFailed {
		t.Fatal("clean PTE line failed verification")
	}
	if !rd.Stripped {
		t.Error("MAC not stripped")
	}
	if rd.Line != line {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", rd.Line, line)
	}
}

func TestReadPTERoundTripProperty(t *testing.T) {
	g := newTestGuard(t, nil)
	f := func(pfns [8]uint32, flags uint16, addr uint32) bool {
		var line pte.Line
		for i, p := range pfns {
			line[i] = pte.Entry(uint64(flags) &^ (pte.MaskMAC | pte.MaskIdentifier)).
				WithPFN(uint64(p) & 0xFFFFFFF)
		}
		a := uint64(addr) &^ 63
		w, err := g.OnWrite(line, a)
		if err != nil || !w.Protected {
			return false
		}
		rd := g.OnRead(w.Line, a, true)
		return !rd.CheckFailed && rd.Line == line
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDetectionOfEveryProtectedBitFlip(t *testing.T) {
	// §IV-G invariant: no tampered PTE line is ever consumed. Flip each
	// protected bit and each MAC bit in turn; every one must be detected.
	// A clean walk read first puts the line's MAC in the memo, so the
	// flips are checked against a memoized tag too.
	g := newTestGuard(t, nil)
	line := makePTELine(0xABC00, testFlags, 8)
	w, err := g.OnWrite(line, 0x7000)
	if err != nil {
		t.Fatal(err)
	}
	if rd := g.OnRead(w.Line, 0x7000, true); rd.CheckFailed || rd.Line != line {
		t.Fatal("clean walk read failed")
	}
	if g.memoHits != 1 {
		t.Fatalf("clean read after write: %d memo hits, want 1", g.memoHits)
	}
	f := g.cfg.Format
	for i := 0; i < pte.PTEsPerLine; i++ {
		for b := 0; b < 64; b++ {
			bit := uint64(1) << uint(b)
			if f.ProtectedMask&bit == 0 && f.MACMask&bit == 0 {
				continue
			}
			tampered := w.Line
			tampered[i] = pte.Entry(uint64(tampered[i]) ^ bit)
			rd := g.OnRead(tampered, 0x7000, true)
			if !rd.CheckFailed {
				t.Fatalf("flip of PTE %d bit %d not detected", i, b)
			}
		}
	}
	if got := g.Counters().VerifyFailures; got == 0 {
		t.Error("VerifyFailures counter not incremented")
	}
	if rd := g.OnRead(w.Line, 0x7000, true); rd.CheckFailed || rd.Line != line {
		t.Error("clean image failed verification after the tampered reads")
	}
}

func TestAccessedBitNotCovered(t *testing.T) {
	// The walker sets the accessed bit asynchronously; it is excluded
	// from the MAC (Table IV), so toggling it must not fail verification.
	g := newTestGuard(t, nil)
	line := makePTELine(0x999000, testFlags, 8)
	w, err := g.OnWrite(line, 0xC0000)
	if err != nil {
		t.Fatal(err)
	}
	touched := w.Line
	touched[3] = pte.Entry(uint64(touched[3]) | pte.MaskAccessed)
	rd := g.OnRead(touched, 0xC0000, true)
	if rd.CheckFailed {
		t.Fatal("accessed-bit change failed verification")
	}
	want := line
	want[3] = pte.Entry(uint64(want[3]) | pte.MaskAccessed)
	if rd.Line != want {
		t.Error("accessed bit lost in round trip")
	}
}

func TestDataReadForwardsUnprotectedUnchanged(t *testing.T) {
	g := newTestGuard(t, nil)
	r := stats.NewRNG(2)
	var line pte.Line
	for i := range line {
		line[i] = pte.Entry(r.Uint64() | 1<<41) // MAC field non-zero
	}
	w, err := g.OnWrite(line, 0x2000)
	if err != nil {
		t.Fatal(err)
	}
	rd := g.OnRead(w.Line, 0x2000, false)
	if rd.Stripped || rd.Line != line {
		t.Error("unprotected data line modified on read")
	}
}

func TestDataReadStripsProtectedData(t *testing.T) {
	// A regular data line that happens to match the pattern gets a MAC on
	// write, which must be removed transparently on read (§IV-C).
	g := newTestGuard(t, nil)
	var line pte.Line
	line[0] = pte.Entry(uint64(0xDEAD) &^ pte.MaskMAC)
	line[5] = pte.Entry(uint64(0xC0DE))
	w, err := g.OnWrite(line, 0x3000)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Protected {
		t.Fatal("pattern-matching data line not protected")
	}
	rd := g.OnRead(w.Line, 0x3000, false)
	if !rd.Stripped || rd.Line != line {
		t.Error("embedded MAC not stripped from data line")
	}
}

func TestDataReadWithFlipForwardsAsIs(t *testing.T) {
	// §IV-E: a protected data line with a bit flip fails the MAC compare
	// and is forwarded unchanged — same failure mode as the baseline.
	g := newTestGuard(t, nil)
	var line pte.Line
	line[2] = pte.Entry(0xF00D)
	w, err := g.OnWrite(line, 0x5000)
	if err != nil {
		t.Fatal(err)
	}
	flipped := w.Line
	flipped[2] = pte.Entry(uint64(flipped[2]) ^ 1<<13)
	rd := g.OnRead(flipped, 0x5000, false)
	if rd.Stripped {
		t.Error("flipped data line wrongly stripped")
	}
	if rd.Line != flipped {
		t.Error("flipped data line modified")
	}
	if rd.CheckFailed {
		t.Error("data reads must not raise PTECheckFailed")
	}
}

// craftCollidingLine builds a line whose MAC-field bits equal the MAC
// computed over its own protected bits: the known-plaintext construction of
// §IV-G an attacker uses to generate colliding lines.
func craftCollidingLine(g *Guard, seed, addr uint64) pte.Line {
	r := stats.NewRNG(seed)
	var line pte.Line
	for i := range line {
		line[i] = pte.Entry(r.Uint64())
	}
	f := g.cfg.Format
	tag := g.auth.Compute(maskedImage(line, f.ProtectedMask), addr)
	raw := tag.Raw()
	line = scatterField(line, f.MACMask, raw[:tag.SizeBytes()])
	if g.cfg.OptIdentifier {
		line = scatterField(line, f.IdentifierMask, g.ident)
	}
	// Ensure it does not accidentally match the write pattern.
	if fieldIsZero(line, f.MACMask) {
		line[0] = pte.Entry(uint64(line[0]) | 1<<40)
	}
	return line
}

func TestCollisionTrackedAndForwarded(t *testing.T) {
	g := newTestGuard(t, nil)
	line := craftCollidingLine(g, 77, 0x9000)
	w, err := g.OnWrite(line, 0x9000)
	if err != nil {
		t.Fatal(err)
	}
	if !w.CollisionTracked {
		t.Fatal("colliding line not tracked")
	}
	if g.CTBLen() != 1 {
		t.Fatalf("CTB len = %d, want 1", g.CTBLen())
	}
	// The read must forward the data untouched, without stripping.
	rd := g.OnRead(line, 0x9000, false)
	if rd.Stripped || rd.MACComputed || rd.Line != line {
		t.Error("colliding line not forwarded verbatim")
	}
}

func TestCTBOverflowSignalsRekey(t *testing.T) {
	g := newTestGuard(t, nil)
	for i := 0; i < DefaultCTBEntries; i++ {
		addr := uint64(0x10000 + i*64)
		if _, err := g.OnWrite(craftCollidingLine(g, uint64(100+i), addr), addr); err != nil {
			t.Fatalf("collision %d: %v", i, err)
		}
	}
	addr := uint64(0x20000)
	_, err := g.OnWrite(craftCollidingLine(g, 999, addr), addr)
	if err != ErrCTBFull {
		t.Fatalf("err = %v, want ErrCTBFull", err)
	}
}

func TestCTBReleaseAfterBenignOverwrite(t *testing.T) {
	g := newTestGuard(t, nil)
	addr := uint64(0x9000)
	if _, err := g.OnWrite(craftCollidingLine(g, 7, addr), addr); err != nil {
		t.Fatal(err)
	}
	if g.CTBLen() != 1 {
		t.Fatal("collision not tracked")
	}
	// §VII-B: the OS writes a benign value; the entry is released.
	var benign pte.Line
	benign[0] = pte.Entry(uint64(1) << 42) // non-pattern, non-colliding
	if _, err := g.OnWrite(benign, addr); err != nil {
		t.Fatal(err)
	}
	if g.CTBLen() != 0 {
		t.Errorf("CTB len = %d after benign overwrite, want 0", g.CTBLen())
	}
}

func TestIdentifierSkipsMACOnDataReads(t *testing.T) {
	g := newTestGuard(t, func(c *Config) {
		c.OptIdentifier = true
		c.Identifier = 0xA5A5A5A5A5A5A5
	})
	r := stats.NewRNG(3)
	var line pte.Line
	for i := range line {
		line[i] = pte.Entry(r.Uint64() | 1<<41)
	}
	w, err := g.OnWrite(line, 0x6000)
	if err != nil {
		t.Fatal(err)
	}
	rd := g.OnRead(w.Line, 0x6000, false)
	if rd.MACComputed {
		t.Error("data read without identifier computed a MAC")
	}
	if g.Counters().IdentifierSkips != 1 {
		t.Errorf("IdentifierSkips = %d, want 1", g.Counters().IdentifierSkips)
	}
}

func TestIdentifierEmbeddedAndStripped(t *testing.T) {
	g := newTestGuard(t, func(c *Config) {
		c.OptIdentifier = true
		c.Identifier = 0x5EED5EED5EED5E
	})
	line := makePTELine(0x424200, testFlags, 8)
	w, err := g.OnWrite(line, 0xA000)
	if err != nil {
		t.Fatal(err)
	}
	if fieldIsZero(w.Line, g.cfg.Format.IdentifierMask) {
		t.Error("identifier not embedded")
	}
	rd := g.OnRead(w.Line, 0xA000, true)
	if rd.CheckFailed || rd.Line != line {
		t.Error("optimized PTE round trip failed")
	}
	// Data-read path must also find and strip the protected line.
	rd2 := g.OnRead(w.Line, 0xA000, false)
	if !rd2.Stripped || rd2.Line != line {
		t.Error("data-path strip of identified line failed")
	}
}

func TestPTEWalkChecksMACEvenWithoutIdentifier(t *testing.T) {
	// §V-A: walks always verify, whatever the identifier bits say. A
	// tampered identifier must not let a flipped PTE through.
	g := newTestGuard(t, func(c *Config) {
		c.OptIdentifier = true
		c.Identifier = 0x11223344556677
	})
	line := makePTELine(0x313100, testFlags, 8)
	w, err := g.OnWrite(line, 0xB000)
	if err != nil {
		t.Fatal(err)
	}
	tampered := w.Line
	tampered[0] = pte.Entry(uint64(tampered[0]) ^ 1<<20)         // PFN flip
	tampered[1] = pte.Entry(uint64(tampered[1]) ^ uint64(1)<<52) // identifier flip
	rd := g.OnRead(tampered, 0xB000, true)
	if !rd.CheckFailed {
		t.Error("tampered PTE with broken identifier escaped the walk check")
	}
}

func TestZeroLineFastPath(t *testing.T) {
	g := newTestGuard(t, func(c *Config) {
		c.OptIdentifier = true
		c.Identifier = 0x0F0F0F0F0F0F0F
		c.OptZeroMAC = true
	})
	var zero pte.Line
	w, err := g.OnWrite(zero, 0xD000)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Protected || w.MACComputed {
		t.Fatalf("zero line write should embed MAC-zero without computing: %+v", w)
	}
	rd := g.OnRead(w.Line, 0xD000, false)
	if rd.MACComputed {
		t.Error("zero line read computed a MAC")
	}
	if rd.Line != zero {
		t.Error("zero line round trip failed")
	}
	// The walk path must take the same fast path.
	rdWalk := g.OnRead(w.Line, 0xD000, true)
	if rdWalk.CheckFailed || rdWalk.MACComputed || rdWalk.Line != zero {
		t.Error("zero PTE walk fast path failed")
	}
	if g.Counters().ZeroFastPathHits < 3 {
		t.Errorf("ZeroFastPathHits = %d, want >= 3", g.Counters().ZeroFastPathHits)
	}
}

func TestZeroFastPathRejectsTamperedZeroLine(t *testing.T) {
	g := newTestGuard(t, func(c *Config) { c.OptZeroMAC = true })
	var zero pte.Line
	w, err := g.OnWrite(zero, 0xE000)
	if err != nil {
		t.Fatal(err)
	}
	tampered := w.Line
	tampered[4] = pte.Entry(uint64(tampered[4]) | 1<<2) // user-accessible flip
	rd := g.OnRead(tampered, 0xE000, true)
	if !rd.CheckFailed {
		t.Error("tampered zero line escaped the walk check")
	}
}

func TestSRAMBudget(t *testing.T) {
	// §V-E: 52 bytes base, 71 bytes with both optimizations.
	base := newTestGuard(t, nil)
	if got := base.SRAMBytes(); got != 52 {
		t.Errorf("base SRAM = %d bytes, want 52", got)
	}
	opt := newTestGuard(t, func(c *Config) {
		c.OptIdentifier = true
		c.Identifier = 1
		c.OptZeroMAC = true
	})
	if got := opt.SRAMBytes(); got != 71 {
		t.Errorf("optimized SRAM = %d bytes, want 71", got)
	}
}

func TestCountersAccumulate(t *testing.T) {
	g := newTestGuard(t, nil)
	line := makePTELine(0x777000, testFlags, 8)
	w, _ := g.OnWrite(line, 0x1000)
	g.OnRead(w.Line, 0x1000, true)
	c := g.Counters()
	if c.Writes != 1 || c.Reads != 1 || c.ProtectedWrites != 1 || c.PTEWalkChecks != 1 {
		t.Errorf("counters = %+v", c)
	}
	g.ResetCounters()
	if g.Counters() != (Counters{}) {
		t.Error("ResetCounters left residue")
	}
}

// TestARMv8EndToEnd drives the guard with the ARMv8 descriptor format
// (Table II): the mechanism is format-generic (§IV-F).
func TestARMv8EndToEnd(t *testing.T) {
	f, err := pte.FormatARMv8(40)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGuard(Config{
		Format: f, Key: testKey(),
		EnableCorrection: true, SoftMatchK: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// An ARMv8 leaf line: valid entries with contiguous PFNs.
	var line pte.Line
	for i := 0; i < 8; i++ {
		e := pte.ArmEntry(0).WithPFN(0x55AA0 + uint64(i))
		e |= 1 << pte.ArmBitValid
		e |= 0x3 << 6 // access permissions
		line[i] = pte.Entry(e)
	}
	w, err := g.OnWrite(line, 0x7000)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Protected {
		t.Fatal("ARMv8 PTE line not protected")
	}
	rd := g.OnRead(w.Line, 0x7000, true)
	if rd.CheckFailed || rd.Line != line {
		t.Fatal("ARMv8 round trip failed")
	}
	// Detection: flip the valid bit.
	tampered := w.Line
	tampered[0] = pte.Entry(uint64(tampered[0]) ^ 1)
	rd = g.OnRead(tampered, 0x7000, true)
	if rd.CheckFailed {
		t.Fatal("single ARMv8 flip should be corrected, not rejected")
	}
	if rd.Line != line {
		t.Error("ARMv8 correction produced wrong payload")
	}
	// The ARMv8 accessed bit (bit 10) is uncovered.
	touched := w.Line
	touched[2] = pte.Entry(uint64(touched[2]) | 1<<pte.ArmBitAccessed)
	rd = g.OnRead(touched, 0x7000, true)
	if rd.CheckFailed {
		t.Error("ARMv8 accessed-bit change failed verification")
	}
	// PFN contiguity correction uses the split ARM PFN fields.
	multi := w.Line
	multi[3] = pte.Entry(uint64(multi[3]) ^ 1<<13 ^ 1<<15)
	rd = g.OnRead(multi, 0x7000, true)
	if rd.CheckFailed || rd.Line != line {
		t.Error("ARMv8 PFN corruption not corrected via contiguity")
	}
}

// TestNonInterferenceProperty: lines that do not match the pattern pass
// through write and read paths bit-exactly (DESIGN.md invariant 2).
func TestNonInterferenceProperty(t *testing.T) {
	g := newTestGuard(t, nil)
	f := func(vals [8]uint64, addr uint32) bool {
		var line pte.Line
		for i, v := range vals {
			line[i] = pte.Entry(v)
		}
		// Force a pattern mismatch so the line is never protected.
		line[0] = pte.Entry(uint64(line[0]) | 1<<45)
		a := uint64(addr) &^ 63
		w, err := g.OnWrite(line, a)
		if err != nil || w.Protected || w.Line != line {
			return false
		}
		rd := g.OnRead(line, a, false)
		return rd.Line == line && !rd.CheckFailed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestOptimizedNonInterference: same invariant under the identifier and
// MAC-zero optimizations, including lines whose identifier field is busy.
func TestOptimizedNonInterference(t *testing.T) {
	g := newTestGuard(t, func(c *Config) {
		c.OptIdentifier = true
		c.Identifier = 0x99AABBCCDDEE11
		c.OptZeroMAC = true
	})
	f := func(vals [8]uint64, addr uint32) bool {
		var line pte.Line
		for i, v := range vals {
			line[i] = pte.Entry(v)
		}
		line[3] = pte.Entry(uint64(line[3]) | 1<<47) // MAC field busy
		a := uint64(addr) &^ 63
		w, err := g.OnWrite(line, a)
		if err != nil || w.Protected {
			return false
		}
		rd := g.OnRead(w.Line, a, false)
		return rd.Line == w.Line
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIdentifierCollisionForwardedUnchanged(t *testing.T) {
	// §V-A: a data line whose reserved bits accidentally equal the
	// identifier (once in 2^56) triggers a MAC computation on read; the
	// MAC mismatches and the line is forwarded unchanged — not tracked,
	// not stripped.
	const ident = 0x1337C0DEFACE55
	g := newTestGuard(t, func(c *Config) {
		c.OptIdentifier = true
		c.Identifier = ident
	})
	r := stats.NewRNG(4)
	var line pte.Line
	for i := range line {
		line[i] = pte.Entry(r.Uint64() | 1<<44) // MAC field busy: no pattern match
	}
	// Craft the collision: scatter the identifier into the reserved bits.
	identBytes := make([]byte, 7)
	for i := range identBytes {
		identBytes[i] = byte(uint64(ident) >> (8 * i))
	}
	line = scatterField(line, g.cfg.Format.IdentifierMask, identBytes)

	w, err := g.OnWrite(line, 0x7700)
	if err != nil {
		t.Fatal(err)
	}
	if w.Protected {
		t.Fatal("identifier-colliding line wrongly protected")
	}
	if w.CollisionTracked {
		t.Fatal("identifier collision tracked in CTB (only MAC collisions are)")
	}
	rd := g.OnRead(w.Line, 0x7700, false)
	if !rd.MACComputed {
		t.Error("identifier match must trigger the MAC check")
	}
	if rd.Stripped || rd.Line != line {
		t.Error("identifier-colliding line modified on read")
	}
}

// TestCounterInvariants drives a random operation mix and checks the
// bookkeeping identities the timing model depends on.
func TestCounterInvariants(t *testing.T) {
	g := newTestGuard(t, func(c *Config) {
		c.EnableCorrection = true
		c.SoftMatchK = 4
	})
	r := stats.NewRNG(0xC0117)
	var wantReads, wantWrites, wantWalks uint64
	for i := 0; i < 500; i++ {
		addr := uint64(0x1000 + r.Intn(64)*64)
		switch r.Intn(3) {
		case 0:
			line := makePTELine(uint64(0x100000+r.Intn(1<<16)), testFlags, 1+r.Intn(8))
			if _, err := g.OnWrite(line, addr); err != nil {
				t.Fatal(err)
			}
			wantWrites++
		case 1:
			var line pte.Line
			for j := range line {
				line[j] = pte.Entry(r.Uint64() | 1<<43)
			}
			g.OnRead(line, addr, false)
			wantReads++
		default:
			line := makePTELine(uint64(0x200000+r.Intn(1<<16)), testFlags, 8)
			w, err := g.OnWrite(line, addr)
			if err != nil {
				t.Fatal(err)
			}
			wantWrites++
			img := w.Line
			if r.Bernoulli(0.3) {
				img = flipBit(img, r.Intn(8), r.Intn(52))
			}
			g.OnRead(img, addr, true)
			wantReads++
			wantWalks++
		}
	}
	c := g.Counters()
	if c.Reads != wantReads || c.Writes != wantWrites || c.PTEWalkChecks != wantWalks {
		t.Errorf("op counts: %+v, want reads=%d writes=%d walks=%d", c, wantReads, wantWrites, wantWalks)
	}
	if c.StrippedReads > c.Reads {
		t.Error("StrippedReads exceeds Reads")
	}
	if c.Corrections > c.PTEWalkChecks {
		t.Error("Corrections exceed walk checks")
	}
	if c.VerifyFailures+c.Corrections > c.PTEWalkChecks {
		t.Error("failures + corrections exceed walk checks")
	}
	if c.ProtectedWrites > c.Writes {
		t.Error("ProtectedWrites exceeds Writes")
	}
	if c.CorrectionGuesses > 0 && c.ReadMACComputes < c.CorrectionGuesses/2 {
		t.Error("correction guesses not reflected in MAC computes")
	}
}
