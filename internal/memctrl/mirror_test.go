package memctrl

import (
	"errors"
	"strings"
	"testing"

	"ptguard/internal/core"
	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

// mirrorGuards returns a base-design guard and an optimised-design one
// with correction, both under testGuard's key, as sim builds the two
// protected modes of one comparison from one key.
func mirrorGuards(tb testing.TB) [2]*core.Guard {
	tb.Helper()
	return [2]*core.Guard{
		testGuard(tb, nil),
		testGuard(tb, func(c *core.Config) {
			c.OptIdentifier, c.Identifier = true, 0x5EED5EED5EED5E
			c.OptZeroMAC = true
			c.EnableCorrection, c.SoftMatchK = true, 4
		}),
	}
}

func newTestController(tb testing.TB, g *core.Guard) *Controller {
	tb.Helper()
	c, err := New(testDevice(tb), g, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

func TestMirrorRefusals(t *testing.T) {
	g := mirrorGuards(t)
	c, m := newTestController(t, g[0]), newTestController(t, g[1])
	sameDev, err := New(c.Device(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameGuard := newTestController(t, g[0])
	for _, bad := range []struct {
		name string
		m    *Controller
	}{
		{"nil mirror", nil},
		{"itself", c},
		{"a controller on its device", sameDev},
		{"a controller with its guard", sameGuard},
	} {
		if err := c.Mirror(bad.m); err == nil {
			t.Errorf("%s accepted as a mirror", bad.name)
		}
	}
	if err := c.Mirror(m); err != nil {
		t.Fatal(err)
	}
	if err := c.Mirror(m); err == nil {
		t.Error("a mirror attached twice")
	}
	other := newTestController(t, nil)
	if err := m.Mirror(other); err == nil {
		t.Error("a mirror accepted a mirror of its own")
	}
	if err := other.Mirror(c); err == nil {
		t.Error("a controller with mirrors accepted as a mirror")
	}
	if err := c.Mirror(newTestController(t, g[1])); err == nil {
		t.Error("a second mirror with the first mirror's guard accepted")
	}
	if err := c.Mirror(newTestController(t, nil)); err != nil {
		t.Errorf("second mirror on its own device refused: %v", err)
	}
	if _, err := c.Rekey(fuzzKey(3)); err == nil || !strings.Contains(err.Error(), "mirrors") {
		t.Errorf("Rekey with mirrors attached: error %v", err)
	}
}

// mirrorOpAddr maps an op byte to one of eight line addresses over two
// banks.
func mirrorOpAddr(b byte) uint64 {
	i := uint64(b % 8)
	return 0x200000 + i%4*pte.LineBytes + i/4*0x2000
}

// mirrorOpLine builds a write's line from a content seed: a PTE line both
// designs protect, a zero line, data with a busy MAC field, a PTE line
// with an identifier bit set (which only the base design protects), or
// either guard's sealed image of a PTE line written back as data (a line
// that collides under that guard).
func mirrorOpLine(g [2]*core.Guard, addr uint64, seed byte) pte.Line {
	r := stats.NewRNG(uint64(seed))
	l := pteLine(r.Uint64() % (1 << 24))
	switch seed % 6 {
	case 0:
	case 1:
		l = pte.Line{}
	case 2:
		for k := range l {
			l[k] = pte.Entry(r.Uint64() | pte.MaskMAC)
		}
	case 3:
		k := r.Intn(len(l))
		l[k] |= pte.Entry(r.Uint64()&pte.MaskIdentifier | 1<<52)
	default:
		l = g[seed%2].Seal(addr, l)
	}
	return l
}

// mirrorOp is one decoded op, run alike on every controller of the rig.
type mirrorOp struct {
	kind  byte // 0 data read, 1 walk read, 2 write, 3 batch write, 4 reset
	addrs []uint64
	lines []pte.Line
}

// decodeMirrorOp decodes four op bytes; lines come from g.
func decodeMirrorOp(g [2]*core.Guard, b []byte) mirrorOp {
	op := mirrorOp{kind: b[0] % 5}
	n := 1
	if op.kind == 3 {
		n += int(b[3] % 4)
	}
	for i := 0; i < n; i++ {
		addr := mirrorOpAddr(b[1] + byte(3*i))
		op.addrs = append(op.addrs, addr)
		op.lines = append(op.lines, mirrorOpLine(g, addr, b[2]+byte(i)))
	}
	return op
}

// mirrorOutcome is what one op returned.
type mirrorOutcome struct {
	line pte.Line
	lat  int
	ok   bool
	err  error
}

// differs reports whether two controllers answered an op differently, as
// a mirror judges it: another line or ok, or an error on one side only.
func (o mirrorOutcome) differs(p mirrorOutcome) bool {
	return o.line != p.line || o.ok != p.ok || (o.err == nil) != (p.err == nil)
}

func (op mirrorOp) run(c *Controller) mirrorOutcome {
	var o mirrorOutcome
	switch op.kind {
	case 0, 1:
		o.line, o.lat, o.ok = c.ReadLine(op.addrs[0], op.kind == 1)
	case 2:
		o.lat, o.err = c.WriteLine(op.addrs[0], op.lines[0])
	case 3:
		o.lat, o.err = c.WriteLinesBatch(op.addrs, op.lines)
	case 4:
		c.ResetStats()
	}
	return o
}

// sameController compares got with its standalone twin want: counters,
// guard counters, CTB and every line either device stores (reading a line
// seals it, alike on both devices).
func sameController(t *testing.T, step int, name string, got, want *Controller) {
	t.Helper()
	if got.Stats() != want.Stats() {
		t.Fatalf("step %d: %s stats\n%+v, want\n%+v", step, name, got.Stats(), want.Stats())
	}
	if gg, wg := got.Guard().Counters(), want.Guard().Counters(); gg != wg {
		t.Fatalf("step %d: %s guard counters\n%+v, want\n%+v", step, name, gg, wg)
	}
	if got.Guard().CTBLen() != want.Guard().CTBLen() {
		t.Fatalf("step %d: %s CTB holds %d, want %d", step, name, got.Guard().CTBLen(), want.Guard().CTBLen())
	}
	if got.Device().Stats() != want.Device().Stats() {
		t.Fatalf("step %d: %s device stats %+v, want %+v", step, name, got.Device().Stats(), want.Device().Stats())
	}
	for b := byte(0); b < 8; b++ {
		a := mirrorOpAddr(b)
		if gc, wc := got.Device().Contains(a), want.Device().Contains(a); gc != wc {
			t.Fatalf("step %d: %s holds %#x: %t, want %t", step, name, a, gc, wc)
		}
		if gl, wl := got.Device().ReadLine(a), want.Device().ReadLine(a); gl != wl {
			t.Fatalf("step %d: %s line %#x = %v, want %v", step, name, a, gl, wl)
		}
	}
}

// FuzzMirror holds a mirror to the machine it models: a base-design
// controller mirroring an optimised-design one is run beside the same two
// guard configurations behind standalone controllers, through data and
// walk reads, writes, batch writes and counter resets over a few
// addresses with lines of every kind. After every op the primary answers
// and counts exactly as its standalone twin, the mirror's counters and
// stored lines equal the standalone optimised controller's, and Diverged
// turns non-nil exactly at the first op on which the two standalone
// controllers answered differently.
func FuzzMirror(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 0, 3, 3, 1, 3, 0, 0, 4, 0, 0, 0, 1, 0, 0, 0})
	f.Add([]byte{2, 1, 1, 0, 0, 1, 0, 0, 1, 1, 0, 0, 2, 2, 4, 0, 1, 2, 0, 0})
	f.Add([]byte{2, 5, 5, 0, 0, 5, 0, 0, 1, 5, 0, 0, 3, 6, 2, 1, 1, 7, 0, 0})
	f.Add([]byte{2, 0, 3, 0, 0, 0, 0, 0, 4, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const opBytes, maxOps = 4, 32
		rig := mirrorGuards(t)
		alone := [2]*Controller{newTestController(t, rig[0]), newTestController(t, rig[1])}
		g := mirrorGuards(t)
		primary, mirror := newTestController(t, g[0]), newTestController(t, g[1])
		if err := primary.Mirror(mirror); err != nil {
			t.Fatal(err)
		}
		diverged := false
		for i := 0; i < min(len(data)/opBytes, maxOps); i++ {
			op := decodeMirrorOp(rig, data[i*opBytes:(i+1)*opBytes])
			got, base, opt := op.run(primary), op.run(alone[0]), op.run(alone[1])
			if got.differs(base) || got.lat != base.lat || !errors.Is(got.err, base.err) {
				t.Fatalf("op %d %+v: primary returned %+v, its standalone twin %+v", i, op, got, base)
			}
			sameController(t, i, "primary", primary, alone[0])
			sameController(t, i, "mirror", mirror, alone[1])
			diverged = diverged || base.differs(opt)
			if err := primary.Diverged(); (err != nil) != diverged {
				t.Fatalf("op %d %+v: Diverged() = %v after standalone outcomes %+v and %+v", i, op, err, base, opt)
			}
		}
	})
}
