package core

import (
	"errors"
	"math/bits"
	"testing"
	"testing/quick"

	"ptguard/internal/obs"
	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

// collidingLine crafts a line whose MAC-field bits equal the MAC the Guard
// would compute for it: the §IV-D collision case, which random content
// essentially never produces. The MAC covers only the protected bits, so
// writing the tag into the (disjoint) MAC field does not change it.
func collidingLine(g *Guard, base pte.Line, addr uint64) pte.Line {
	f := g.cfg.Format
	l := clearField(base, f.MACMask)
	if g.cfg.OptIdentifier {
		l = scatterField(l, f.IdentifierMask, g.ident)
	}
	tag := g.auth.Compute(maskedImage(l, f.ProtectedMask), addr)
	raw := tag.Raw()
	return scatterField(l, f.MACMask, raw[:tag.SizeBytes()])
}

// batchWorkload builds a write mix covering every classification the batch
// pass must reproduce: protected PTE lines (full and partial), all-zero
// lines, random data (MAC field busy), identifier-carrying data that does
// not collide, and crafted colliding lines — enough of the latter to
// overflow the default 4-entry CTB.
func batchWorkload(g *Guard, r *stats.RNG) (lines []pte.Line, addrs []uint64) {
	addr := uint64(0x10000)
	push := func(l pte.Line) {
		lines = append(lines, l)
		addrs = append(addrs, addr)
		addr += 0x40
	}
	for i := 0; i < 12; i++ {
		push(makePTELine(0x40000+uint64(i)*8, testFlags, 8))
		push(makePTELine(0x90000+uint64(i)*8, testFlags, 1+int(r.Uint64()%7)))
		push(pte.Line{})
		var data pte.Line
		for k := range data {
			data[k] = pte.Entry(r.Uint64() | pte.MaskMAC)
		}
		push(data)
		if g.cfg.OptIdentifier {
			// Identifier present, MAC field busy but (overwhelmingly) not
			// colliding: the collision check runs and clears.
			var ident pte.Line
			for k := range ident {
				ident[k] = pte.Entry(r.Uint64() | pte.MaskMAC)
			}
			push(scatterField(ident, g.cfg.Format.IdentifierMask, g.ident))
		}
	}
	for i := 0; i < 6; i++ {
		var base pte.Line
		for k := range base {
			base[k] = pte.Entry(r.Uint64())
		}
		push(collidingLine(g, base, addr))
	}
	return lines, addrs
}

var batchConfigs = []struct {
	name   string
	mutate func(*Config)
}{
	{name: "default"},
	{name: "tag64", mutate: func(c *Config) { c.TagBits = 64 }},
	{name: "qarma64", mutate: func(c *Config) { c.UseQARMA64 = true }},
	{name: "identifier", mutate: func(c *Config) {
		c.OptIdentifier = true
		c.Identifier = 0xA5A5A5A5A5A5A5
	}},
	{name: "zeromac", mutate: func(c *Config) { c.OptZeroMAC = true }},
	{name: "correction", mutate: func(c *Config) {
		c.EnableCorrection = true
		c.SoftMatchK = 4
	}},
	{name: "all-opts", mutate: func(c *Config) {
		c.OptIdentifier = true
		c.Identifier = 0x5EED5EED5EED5E
		c.OptZeroMAC = true
		c.EnableCorrection = true
		c.SoftMatchK = 4
	}},
}

// sealDeferred returns an OnWriteUnsealed result as OnWrite would have
// returned it: a deferred protected line sealed with Seal.
func sealDeferred(g *Guard, r WriteResult, addr uint64) WriteResult {
	if r.Deferred {
		r.Line, r.Deferred = g.Seal(addr, r.Line), false
	}
	return r
}

// TestBatchMatchesScalarGuard is the Guard-level equivalence property of
// the table-flush path: per-line OnWriteUnsealed, each deferred line sealed
// with Seal, must be bit-identical to OnWrite — results, errors and CTB
// state — across optimization configs, both ciphers, colliding lines and
// CTB overflow, and it must return exactly the protected lines unsealed.
// Reading the sealed images back through OnRead, a quarter of them
// corrupted, must then leave both guards with identical results and full
// Counters.
func TestBatchMatchesScalarGuard(t *testing.T) {
	for _, tc := range batchConfigs {
		t.Run(tc.name, func(t *testing.T) {
			gs := newTestGuard(t, tc.mutate) // eager reference
			gu := newTestGuard(t, tc.mutate) // unsealed writes

			lines, addrs := batchWorkload(gs, stats.NewRNG(0xBA7C11))
			n := len(lines)

			// Writes.
			sres := make([]WriteResult, n)
			failed := 0
			for i := range lines {
				want, werr := gs.OnWrite(lines[i], addrs[i])
				got, gerr := gu.OnWriteUnsealed(lines[i], addrs[i])
				if !errors.Is(gerr, werr) {
					t.Fatalf("write %d: err = %v, OnWrite %v", i, gerr, werr)
				}
				if werr != nil {
					failed++
				}
				if got.Deferred != got.Protected {
					t.Fatalf("write %d: deferred %v, protected %v", i, got.Deferred, got.Protected)
				}
				if sealed := sealDeferred(gu, got, addrs[i]); sealed != want {
					t.Fatalf("write %d: sealed %+v != OnWrite %+v", i, sealed, want)
				}
				sres[i] = want
			}
			// Crafted collisions only register when the tag fills the MAC
			// field: with 64-bit tags in the 96-bit x86 field the stored
			// bytes can never equal the (shorter) tag, in either path.
			if failed == 0 && gs.cfg.TagBits == bits.OnesCount64(gs.cfg.Format.MACMask)*pte.PTEsPerLine {
				t.Fatal("workload did not overflow the CTB; colliding mix broken")
			}
			if gs.CTBLen() != gu.CTBLen() {
				t.Fatalf("CTB len = %d, OnWrite %d", gu.CTBLen(), gs.CTBLen())
			}

			// Reads of the stored images, a quarter corrupted with one
			// protected-bit flip (exercising verify failures and, when
			// enabled, the correction search), under both request types.
			r := stats.NewRNG(0xC0DE)
			stored := make([]pte.Line, n)
			for i := range stored {
				stored[i] = sres[i].Line
				if i%4 == 0 {
					m := gs.cfg.Format.ProtectedMask
					e := int(r.Uint64() % pte.PTEsPerLine)
					b := bits.TrailingZeros64(m >> (r.Uint64() % 40))
					stored[i][e] = pte.Entry(uint64(stored[i][e]) ^ 1<<uint(b%64))
				}
			}
			for _, isPTE := range []bool{true, false} {
				for i := range stored {
					want := gs.OnRead(stored[i], addrs[i], isPTE)
					if got := gu.OnRead(stored[i], addrs[i], isPTE); got != want {
						t.Fatalf("read %d (isPTE=%v): %+v != eager %+v", i, isPTE, got, want)
					}
				}
			}

			cs, cu := gs.Counters(), gu.Counters()
			if cs != cu {
				t.Fatalf("counters diverge:\nunsealed %+v\neager    %+v", cu, cs)
			}
		})
	}
}

// TestAudit: the pure verifier must flag exactly the corrupted lines, treat
// CTB-tracked and zero-protected lines as clean, and leave Guard state
// untouched: no counter moves and the MAC memo is neither read nor filled.
func TestAudit(t *testing.T) {
	g := newTestGuard(t, func(c *Config) { c.OptZeroMAC = true })
	var lines []pte.Line
	var addrs []uint64
	for i := 0; i < 20; i++ {
		res, err := g.OnWrite(makePTELine(0x7000+uint64(i)*8, testFlags, 8), uint64(0x20000+i*0x40))
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, res.Line)
		addrs = append(addrs, uint64(0x20000+i*0x40))
	}
	// A zero line under OptZeroMAC and a CTB-tracked address.
	zres, _ := g.OnWrite(pte.Line{}, 0x30000)
	lines, addrs = append(lines, zres.Line), append(addrs, 0x30000)
	var junk pte.Line
	junk[0] = pte.Entry(0xDEAD << 12)
	if err := g.ctb.add(0x30040); err != nil {
		t.Fatal(err)
	}
	lines, addrs = append(lines, junk), append(addrs, 0x30040)

	// Corrupt lines 3 and 7.
	lines[3][0] = pte.Entry(uint64(lines[3][0]) ^ 1<<20)
	lines[7][5] = pte.Entry(uint64(lines[7][5]) ^ 1<<13)

	before, hits, misses, memo := g.Counters(), g.memoHits, g.memoMisses, *g.memo
	for i := range lines {
		want := i != 3 && i != 7
		if clean := g.Audit(lines[i], addrs[i]); clean != want {
			t.Errorf("line %d: audit clean=%v, want %v", i, clean, want)
		}
	}
	if g.Counters() != before {
		t.Error("Audit perturbed Guard counters")
	}
	if g.memoHits != hits || g.memoMisses != misses {
		t.Errorf("Audit looked up the MAC memo: hits %d -> %d, misses %d -> %d",
			hits, g.memoHits, misses, g.memoMisses)
	}
	if *g.memo != memo {
		t.Error("Audit filled the MAC memo")
	}
}

// gatherField is the allocating form of gatherFieldInto.
func gatherField(line pte.Line, mask uint64) []byte {
	var buf [pte.LineBytes]byte
	n := gatherFieldInto(&buf, line, mask)
	return append([]byte(nil), buf[:n]...)
}

// Bit-by-bit reference implementations the run-decomposed gather/scatter
// loops are checked against.
func gatherFieldRef(line pte.Line, mask uint64) []byte {
	n := bits.OnesCount64(mask) * pte.PTEsPerLine
	out := make([]byte, (n+7)/8)
	pos := 0
	for _, e := range line {
		m := mask
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			if uint64(e)>>uint(b)&1 == 1 {
				out[pos/8] |= 1 << (pos % 8)
			}
			pos++
		}
	}
	return out
}

func scatterFieldRef(line pte.Line, mask uint64, data []byte) pte.Line {
	pos := 0
	for i, e := range line {
		v := uint64(e) &^ mask
		m := mask
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			if pos/8 < len(data) && data[pos/8]>>(pos%8)&1 == 1 {
				v |= 1 << uint(b)
			}
			pos++
		}
		line[i] = pte.Entry(v)
	}
	return line
}

// TestGatherScatterRunsMatchRef quick-checks the run-decomposed field
// gather/scatter against the bit-by-bit reference on random masks
// (including single-run, alternating and full-width shapes that stress the
// 56-bit run cap) and short data slices (bits past the data must read 0).
func TestGatherScatterRunsMatchRef(t *testing.T) {
	edgeMasks := []uint64{0, 1, 1 << 63, ^uint64(0), 0xFFF_0000000000,
		0xAAAAAAAAAAAAAAAA, 0x7FFFFFFFFFFFFFFF, pte.MaskMAC, 1<<63 | 1}
	prop := func(seed uint64, maskSel uint8, trim uint8) bool {
		r := stats.NewRNG(seed)
		mask := r.Uint64()
		if int(maskSel)%3 == 0 {
			mask = edgeMasks[int(maskSel)%len(edgeMasks)]
		}
		var line pte.Line
		for i := range line {
			line[i] = pte.Entry(r.Uint64())
		}
		got := gatherField(line, mask)
		want := gatherFieldRef(line, mask)
		if len(got) != len(want) {
			t.Logf("mask %#x: gather length %d want %d", mask, len(got), len(want))
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				t.Logf("mask %#x: gather byte %d = %#x want %#x", mask, i, got[i], want[i])
				return false
			}
		}
		data := make([]byte, pte.LineBytes)
		for i := range data {
			data[i] = byte(r.Uint64())
		}
		data = data[:len(data)-int(trim)%len(data)]
		if scatterField(line, mask, data) != scatterFieldRef(line, mask, data) {
			t.Logf("mask %#x len %d: scatter mismatch", mask, len(data))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchObservability: flush writes publish their deferred write MACs;
// one corrupted walk read with correction on, repaired by step-2 candidate
// idx, then publishes exactly the cipher work of a search scored one
// candidate at a time: 2·Chunks() + idx + 1 chunk encryptions (the verify
// MAC, Precompute and one per candidate) and idx + 3 read MACs (the
// verify, the step-1 retry and one per candidate).
func TestBatchObservability(t *testing.T) {
	g := correctionGuard(t, nil)
	ref := correctionGuard(t, nil)
	g.SetObserver(obs.New(obs.Options{}))
	const protected, data = 10, 6
	r := stats.NewRNG(0x0B5)
	var lines []pte.Line
	var addrs []uint64
	for i := 0; i < protected+data; i++ {
		l := makePTELine(0x5000+uint64(i)*8, testFlags, 8)
		if i >= protected {
			for k := range l {
				l[k] = pte.Entry(r.Uint64() | pte.MaskMAC)
			}
		}
		lines = append(lines, l)
		addrs = append(addrs, uint64(0x60000+i*0x40))
	}
	sealed := make([]pte.Line, len(lines))
	for i := range lines {
		res, err := g.OnWriteUnsealed(lines[i], addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.OnWrite(lines[i], addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		if res.Deferred != (i < protected) {
			t.Errorf("line %d: deferred %v, want %v", i, res.Deferred, i < protected)
		}
		got := sealDeferred(g, res, addrs[i])
		if got != want {
			t.Errorf("line %d: sealed %+v != OnWrite %+v", i, got, want)
		}
		sealed[i] = got.Line
	}
	published := func() map[string]uint64 {
		reg := obs.NewRegistry()
		g.PublishObs(reg)
		return reg.Snapshot().Counters
	}
	c := published()
	if got := c["guard.deferred_write_macs"]; got != protected {
		t.Errorf("guard.deferred_write_macs = %d, want %d", got, protected)
	}

	// Flip protected bit rank 5 of PTE 2: flip-and-check consumes its
	// candidates in (PTE, bit) order, so the match is candidate idx.
	f := g.cfg.Format
	perPTE := bits.OnesCount64(f.ProtectedMask)
	const entry, rank = 2, 5
	m := f.ProtectedMask
	for i := 0; i < rank; i++ {
		m &= m - 1
	}
	bad := sealed[0]
	bad[entry] = pte.Entry(uint64(bad[entry]) ^ 1<<uint(bits.TrailingZeros64(m)))
	rd := g.OnRead(bad, addrs[0], true)
	if !rd.Corrected || rd.Line != lines[0] {
		t.Fatalf("walk read of the flipped line: %+v, want corrected to the written line", rd)
	}
	idx := entry*perPTE + rank
	if want := 1 + idx + 1; rd.Guesses != want {
		t.Fatalf("guesses = %d, want %d (soft retry + candidates 0..%d)", rd.Guesses, want, idx)
	}
	after := published()
	enc := after["guard.chunk_encrypts"] - c["guard.chunk_encrypts"]
	if want := uint64(2*g.auth.Chunks() + idx + 1); enc != want {
		t.Errorf("guard.chunk_encrypts rose by %d, want %d (verify, Precompute, %d candidates)", enc, want, idx+1)
	}
	macs := after["guard.read_mac_computes"] - c["guard.read_mac_computes"]
	if want := uint64(idx + 3); macs != want {
		t.Errorf("guard.read_mac_computes rose by %d, want %d (verify, soft retry, %d candidates)", macs, want, idx+1)
	}
}
