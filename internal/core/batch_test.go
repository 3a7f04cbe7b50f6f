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

// stripBatchTelemetry zeroes the counters the batch engine adds on top of
// the scalar path; everything else must match bit-for-bit.
func stripBatchTelemetry(c Counters) Counters {
	c.MACBatches = 0
	c.BatchedMACComputes = 0
	return c
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

// sealDeferred returns a batch write result as the eager scalar path
// would have returned it: a deferred protected line sealed with Seal.
func sealDeferred(g *Guard, r WriteResult, addr uint64) WriteResult {
	if r.Deferred {
		r.Line, r.Deferred = g.Seal(addr, r.Line), false
	}
	return r
}

// TestBatchMatchesScalarGuard is the Guard-level equivalence property:
// OnWriteBatch and OnReadBatch must be bit-identical to sequential
// OnWrite/OnRead — results, errors, counters (minus batch telemetry) and
// CTB state — across optimization configs, both ciphers, corrupted lines
// that trigger the correction search, colliding lines and CTB overflow.
// OnWriteBatch returns exactly the protected lines unsealed, and sealing
// one gives OnWrite's image.
func TestBatchMatchesScalarGuard(t *testing.T) {
	for _, tc := range batchConfigs {
		t.Run(tc.name, func(t *testing.T) {
			gs := newTestGuard(t, tc.mutate) // scalar reference
			gb := newTestGuard(t, tc.mutate) // batched

			lines, addrs := batchWorkload(gs, stats.NewRNG(0xBA7C11))
			n := len(lines)

			// Writes.
			sres := make([]WriteResult, n)
			sfailed := 0
			var serr error
			for i := range lines {
				r, err := gs.OnWrite(lines[i], addrs[i])
				sres[i] = r
				if err != nil {
					sfailed++
					if serr == nil {
						serr = err
					}
				}
			}
			bres := make([]WriteResult, n)
			bfailed, berr := gb.OnWriteBatch(bres, lines, addrs)
			if bfailed != sfailed {
				t.Fatalf("failed = %d, scalar %d", bfailed, sfailed)
			}
			if !errors.Is(berr, serr) {
				t.Fatalf("err = %v, scalar %v", berr, serr)
			}
			// Crafted collisions only register when the tag fills the MAC
			// field: with 64-bit tags in the 96-bit x86 field the stored
			// bytes can never equal the (shorter) tag, in either path.
			if sfailed == 0 && gs.cfg.TagBits == bits.OnesCount64(gs.cfg.Format.MACMask)*pte.PTEsPerLine {
				t.Fatal("workload did not overflow the CTB; colliding mix broken")
			}
			for i := range sres {
				if bres[i].Deferred != bres[i].Protected {
					t.Fatalf("write %d: deferred %v, protected %v", i, bres[i].Deferred, bres[i].Protected)
				}
				if got := sealDeferred(gb, bres[i], addrs[i]); got != sres[i] {
					t.Fatalf("write %d: sealed batch %+v != scalar %+v", i, got, sres[i])
				}
			}
			if gs.CTBLen() != gb.CTBLen() {
				t.Fatalf("CTB len = %d, scalar %d", gb.CTBLen(), gs.CTBLen())
			}

			// Reads of the stored images, a quarter corrupted with 1-2
			// protected-bit flips (exercising verify failures and, when
			// enabled, the wave-batched correction search), under both
			// request types.
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
				srd := make([]ReadResult, n)
				for i := range stored {
					srd[i] = gs.OnRead(stored[i], addrs[i], isPTE)
				}
				brd := make([]ReadResult, n)
				gb.OnReadBatch(brd, stored, addrs, isPTE)
				for i := range srd {
					if srd[i] != brd[i] {
						t.Fatalf("read %d (isPTE=%v): batch %+v != scalar %+v",
							i, isPTE, brd[i], srd[i])
					}
				}
			}

			cs := stripBatchTelemetry(gs.Counters())
			cb := stripBatchTelemetry(gb.Counters())
			if cs != cb {
				t.Fatalf("counters diverge:\nbatch  %+v\nscalar %+v", cb, cs)
			}
			if gb.Counters().MACBatches == 0 || gb.Counters().BatchedMACComputes == 0 {
				t.Error("batch telemetry counters never charged")
			}
		})
	}
}

// TestAuditBatch: the pure batch verifier must flag exactly the corrupted
// lines, treat CTB-tracked and zero-protected lines as clean, and leave
// Guard state untouched.
func TestAuditBatch(t *testing.T) {
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

	before := g.Counters()
	ok := make([]bool, len(lines))
	g.AuditBatch(ok, lines, addrs)
	if g.Counters() != before {
		t.Error("AuditBatch perturbed Guard counters")
	}
	for i, clean := range ok {
		want := i != 3 && i != 7
		if clean != want {
			t.Errorf("line %d: audit clean=%v, want %v", i, clean, want)
		}
	}
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

// TestGuardBatchZeroAlloc: steady-state batch write, read and audit passes
// must not allocate — the scratch grows once and is reused.
func TestGuardBatchZeroAlloc(t *testing.T) {
	g := newTestGuard(t, nil)
	const n = 64
	lines := make([]pte.Line, n)
	addrs := make([]uint64, n)
	for i := range lines {
		lines[i] = makePTELine(0x11000+uint64(i)*8, testFlags, 8)
		addrs[i] = uint64(0x40000 + i*0x40)
	}
	wres := make([]WriteResult, n)
	if _, err := g.OnWriteBatch(wres, lines, addrs); err != nil {
		t.Fatal(err)
	}
	stored := make([]pte.Line, n)
	for i := range stored {
		stored[i] = g.Seal(addrs[i], wres[i].Line)
	}
	rres := make([]ReadResult, n)
	ok := make([]bool, n)

	if a := testing.AllocsPerRun(20, func() {
		if _, err := g.OnWriteBatch(wres, lines, addrs); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("OnWriteBatch allocates %.1f objects/op, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() {
		g.OnReadBatch(rres, stored, addrs, true)
	}); a != 0 {
		t.Errorf("OnReadBatch allocates %.1f objects/op, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() {
		g.AuditBatch(ok, stored, addrs)
	}); a != 0 {
		t.Errorf("AuditBatch allocates %.1f objects/op, want 0", a)
	}
}

// TestBatchObservability: with an observer attached, batch passes must feed
// the lines-per-batch histogram and the published batch counters — the
// -metrics-out view of batching traffic — and the deferred write MACs of
// protected lines must be published beside them. The batch engine serves
// only the collision checks of unprotected lines; protected lines come
// back unsealed, and sealing one gives the per-line OnWrite image.
func TestBatchObservability(t *testing.T) {
	g := newTestGuard(t, nil)
	ref := newTestGuard(t, nil)
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
	res := make([]WriteResult, len(lines))
	if _, err := g.OnWriteBatch(res, lines, addrs); err != nil {
		t.Fatal(err)
	}
	for i := range lines {
		want, err := ref.OnWrite(lines[i], addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		if res[i].Deferred != (i < protected) {
			t.Errorf("line %d: deferred %v, want %v", i, res[i].Deferred, i < protected)
		}
		if got := sealDeferred(g, res[i], addrs[i]); got != want {
			t.Errorf("line %d: sealed batch %+v != OnWrite %+v", i, got, want)
		}
	}
	reg := obs.NewRegistry()
	g.PublishObs(reg)
	snap := reg.Snapshot()
	if got := snap.Counters["guard.mac_batches"]; got != 1 {
		t.Errorf("guard.mac_batches = %d, want 1", got)
	}
	if got := snap.Counters["guard.batched_mac_computes"]; got != data {
		t.Errorf("guard.batched_mac_computes = %d, want %d", got, data)
	}
	if got := snap.Counters["guard.deferred_write_macs"]; got != protected {
		t.Errorf("guard.deferred_write_macs = %d, want %d", got, protected)
	}
	hist := g.batchHist.Snapshot()
	if hist.Count != 1 || hist.Sum != data {
		t.Errorf("guard.batch_lines histogram = %+v, want one observation of %d", hist, data)
	}
}
