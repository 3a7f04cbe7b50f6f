package memctrl

import (
	"errors"
	"testing"

	"ptguard/internal/core"
	"ptguard/internal/dram"
	"ptguard/internal/mac"
	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

// sealRig is one DRAM device shared by a base and an optimised guarded
// controller with different keys, as virt shares its device between the
// guest and stage-2 controllers, plus a hammerer on the device.
type sealRig struct {
	dev  *dram.Device
	ctrl [2]*Controller
	ham  *dram.Hammerer
	// eager makes batch writes, Rekey included, per-line scalar writes:
	// the reference the sealing-on-first-read rig is compared against.
	eager bool
}

func fuzzKey(seed uint64) []byte {
	key := make([]byte, mac.KeySize)
	r := stats.NewRNG(seed)
	for i := range key {
		key[i] = byte(r.Uint64())
	}
	return key
}

func newSealRig(tb testing.TB, eager bool) *sealRig {
	tb.Helper()
	rig := &sealRig{dev: testDevice(tb), eager: eager}
	guards := [2]*core.Guard{
		testGuard(tb, nil),
		testGuard(tb, func(c *core.Config) {
			c.Key = fuzzKey(0x0B7)
			c.OptIdentifier, c.Identifier = true, 0x5EED5EED5EED5E
			c.OptZeroMAC = true
			c.EnableCorrection, c.SoftMatchK = true, 4
		}),
	}
	for i, g := range guards {
		c, err := New(rig.dev, g, 3*i)
		if err != nil {
			tb.Fatal(err)
		}
		rig.ctrl[i] = c
	}
	ham, err := dram.NewHammerer(rig.dev, dram.HammerConfig{FlipProb: 1.0 / 128, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	rig.ham = ham
	return rig
}

// sealOpAddr maps an op byte to one of 32 line addresses spread over four
// banks, a few lines per row, so flips land beside written lines.
func sealOpAddr(b byte) uint64 {
	i := uint64(b % 32)
	return 0x100000 + i%8*pte.LineBytes + i/8*0x2000
}

// sealOpLine builds a write's line from a content seed: a protected PTE
// line, a zero line, data whose MAC field is busy, or a line crafted to
// collide under c's guard (its own sealed image, rewritten as data).
func sealOpLine(c *Controller, addr uint64, seed byte) pte.Line {
	r := stats.NewRNG(uint64(seed))
	switch seed % 4 {
	case 0:
		return pteLine(r.Uint64() % (1 << 24))
	case 1:
		return pte.Line{}
	case 2:
		var l pte.Line
		for k := range l {
			l[k] = pte.Entry(r.Uint64() | pte.MaskMAC)
		}
		return l
	default:
		return c.Guard().Seal(addr, pteLine(r.Uint64()%(1<<24)))
	}
}

// sealOpResult is what one op returned, compared between the two rigs.
type sealOpResult struct {
	line       pte.Line
	lat        int
	ok         bool
	n          int
	err        error
	rekeyStats RekeyStats
}

// apply runs one four-byte op on the rig.
func (rig *sealRig) apply(op []byte) sealOpResult {
	c := rig.ctrl[op[1]&1]
	addr := sealOpAddr(op[2])
	var res sealOpResult
	switch op[0] % 8 {
	case 0: // batch write of 1-8 lines
		n := 1 + int(op[1]>>1)%8
		addrs := make([]uint64, n)
		lines := make([]pte.Line, n)
		for i := range addrs {
			addrs[i] = sealOpAddr(op[2] + byte(5*i))
			lines[i] = sealOpLine(c, addrs[i], op[3]+byte(i))
		}
		if !rig.eager {
			res.lat, res.err = c.WriteLinesBatch(addrs, lines)
			break
		}
		for i := range addrs {
			lat, err := c.WriteLine(addrs[i], lines[i])
			res.lat += lat
			if err != nil && res.err == nil {
				res.err = err
			}
		}
	case 1:
		res.lat, res.err = c.WriteLine(addr, sealOpLine(c, addr, op[3]))
	case 2:
		res.line, res.lat, res.ok = c.ReadLine(addr, op[3]&1 == 1)
	case 3:
		rig.ham.FlipLineBits(addr, []int{int(op[3]) * 2, int(op[1])})
	case 4:
		res.n = rig.ham.InjectFaults(addr)
	case 5:
		rig.dev.Lines(func(a uint64, l pte.Line) { res.n += int(a>>6) ^ int(l[0]) })
	case 6:
		res.ok = rig.dev.Contains(addr + uint64(op[3]%pte.LineBytes))
	case 7:
		key := fuzzKey(uint64(op[3]))
		if rig.eager {
			res.rekeyStats, res.err = eagerRekey(c, key)
		} else {
			res.rekeyStats, res.err = c.Rekey(key)
		}
	}
	return res
}

// eagerRekey is Rekey with per-line scalar reads and writes, every line
// sealed when written.
func eagerRekey(c *Controller, newKey []byte) (RekeyStats, error) {
	cfg := c.guard.Config()
	cfg.Key = newKey
	next, err := core.NewGuard(cfg)
	if err != nil {
		return RekeyStats{}, err
	}
	var addrs []uint64
	var lines []pte.Line
	c.dev.Lines(func(addr uint64, line pte.Line) {
		addrs = append(addrs, addr)
		lines = append(lines, line)
	})
	st := RekeyStats{LinesScanned: len(lines)}
	stripped := make([]bool, len(lines))
	for i := range lines {
		if rd := c.guard.OnRead(lines[i], addrs[i], false); rd.Stripped {
			lines[i], stripped[i] = rd.Line, true
		}
	}
	wres := make([]core.WriteResult, len(lines))
	for i := range lines {
		r, werr := next.OnWrite(lines[i], addrs[i])
		if werr != nil && err == nil {
			err = werr
		}
		wres[i] = r
	}
	if err != nil {
		return st, err
	}
	for i, r := range wres {
		if stripped[i] && r.Protected {
			st.Remacced++
		}
		c.dev.WriteLine(addrs[i], r.Line)
	}
	c.guard = next
	return st, nil
}

// compareSealRigs compares everything observable without reading a line,
// then the full Lines image (which seals every line of both).
func compareSealRigs(t *testing.T, step int, got, want *sealRig) {
	t.Helper()
	if got.dev.StoredLines() != want.dev.StoredLines() {
		t.Fatalf("step %d: stored lines %d, want %d", step, got.dev.StoredLines(), want.dev.StoredLines())
	}
	if got.dev.Stats() != want.dev.Stats() {
		t.Fatalf("step %d: dram stats %+v, want %+v", step, got.dev.Stats(), want.dev.Stats())
	}
	gf, wf := got.dev.FlipCounts(), want.dev.FlipCounts()
	if len(gf) != len(wf) {
		t.Fatalf("step %d: flips on %d rows, want %d", step, len(gf), len(wf))
	}
	for i := range gf {
		if gf[i] != wf[i] {
			t.Fatalf("step %d: flip count %+v, want %+v", step, gf[i], wf[i])
		}
	}
	for i := range got.ctrl {
		gc, wc := got.ctrl[i], want.ctrl[i]
		if gc.Stats() != wc.Stats() {
			t.Fatalf("step %d: controller %d stats %+v, want %+v", step, i, gc.Stats(), wc.Stats())
		}
		if gg, wg := gc.Guard().Counters(), wc.Guard().Counters(); gg != wg {
			t.Fatalf("step %d: guard %d counters\n%+v, want\n%+v", step, i, gg, wg)
		}
		if gc.Guard().CTBLen() != wc.Guard().CTBLen() {
			t.Fatalf("step %d: guard %d CTB holds %d, want %d", step, i, gc.Guard().CTBLen(), wc.Guard().CTBLen())
		}
	}
	image := func(d *dram.Device) map[uint64]pte.Line {
		m := make(map[uint64]pte.Line)
		d.Lines(func(a uint64, l pte.Line) { m[a] = l })
		return m
	}
	gi, wi := image(got.dev), image(want.dev)
	for a, l := range wi {
		if gi[a] != l {
			t.Fatalf("step %d: line %#x = %v, want %v", step, a, gi[a], l)
		}
	}
}

// FuzzSealOnRead is the differential check of sealing on first read: a
// rig whose batch writes and re-keys store protected lines unsealed must
// be indistinguishable from one that seals every line as it writes it,
// through batch and scalar writes, reads through either controller on both
// request types, targeted and model flips, Lines sweeps, Contains probes
// and re-keys. Comparing Lines images seals every line, so the state after
// op k is compared on a fresh pair of rigs that ran ops 0..k; ops before k
// then meet unsealed lines as a run without comparisons would.
func FuzzSealOnRead(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 1, 1})
	f.Add([]byte{0, 15, 3, 3, 2, 1, 3, 1, 3, 0, 3, 9, 2, 0, 3, 1})
	f.Add([]byte{0, 14, 0, 4, 0, 15, 8, 7, 7, 0, 0, 5, 2, 1, 8, 0, 6, 0, 12, 0})
	f.Add([]byte{0, 6, 1, 2, 4, 0, 1, 0, 2, 0, 1, 1, 5, 0, 0, 0, 1, 1, 1, 3, 2, 1, 1, 1})
	f.Add([]byte{0, 9, 0, 0, 0, 8, 4, 1, 7, 1, 3, 2, 2, 1, 4, 1, 2, 0, 0, 0, 6, 0, 30, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		const opBytes, maxOps = 4, 24
		n := min(len(data)/opBytes, maxOps)
		for k := 1; k <= n; k++ {
			got, want := newSealRig(t, false), newSealRig(t, true)
			for i := 0; i < k; i++ {
				op := data[i*opBytes : (i+1)*opBytes]
				g, w := got.apply(op), want.apply(op)
				if !errors.Is(g.err, w.err) || g.line != w.line || g.lat != w.lat ||
					g.ok != w.ok || g.n != w.n || g.rekeyStats != w.rekeyStats {
					t.Fatalf("op %d %v: got %+v, want %+v", i, op, g, w)
				}
			}
			compareSealRigs(t, k-1, got, want)
		}
	})
}
