package memctrl

import (
	"errors"
	"testing"

	"ptguard/internal/core"
	"ptguard/internal/dram"
	"ptguard/internal/mac"
	"ptguard/internal/obs"
	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

func testDevice(tb testing.TB) *dram.Device {
	tb.Helper()
	d, err := dram.NewDevice(dram.Geometry{}, dram.Timing{})
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

func testGuard(tb testing.TB, mutate func(*core.Config)) *core.Guard {
	tb.Helper()
	f, err := pte.FormatX86(40)
	if err != nil {
		tb.Fatal(err)
	}
	key := make([]byte, mac.KeySize)
	r := stats.NewRNG(0x5A5A)
	for i := range key {
		key[i] = byte(r.Uint64())
	}
	cfg := core.Config{Format: f, Key: key}
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := core.NewGuard(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func pteLine(base uint64) pte.Line {
	var l pte.Line
	flags := pte.Entry(0).SetBit(pte.BitPresent, true).SetBit(pte.BitWritable, true)
	for i := range l {
		l[i] = flags.WithPFN(base + uint64(i))
	}
	return l
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, 0); err == nil {
		t.Error("nil device accepted")
	}
	if _, err := New(testDevice(t), nil, -1); err == nil {
		t.Error("negative contention accepted")
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	c, err := New(testDevice(t), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	line := pteLine(0x100)
	wLat, err := c.WriteLine(0x4000, line)
	if err != nil || wLat <= 0 {
		t.Fatalf("write: lat=%d err=%v", wLat, err)
	}
	got, rLat, ok := c.ReadLine(0x4000, false)
	if !ok || got != line || rLat <= 0 {
		t.Errorf("read: got=%v ok=%v lat=%d", got, ok, rLat)
	}
	s := c.Stats()
	if s.Reads != 1 || s.Writes != 1 || s.ReadMACCycles != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestGuardedPTERoundTripChargesMAC(t *testing.T) {
	g := testGuard(t, nil)
	base, err := New(testDevice(t), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(testDevice(t), g, 0)
	if err != nil {
		t.Fatal(err)
	}
	line := pteLine(0x200)
	if _, err := c.WriteLine(0x8000, line); err != nil {
		t.Fatal(err)
	}
	if _, err := base.WriteLine(0x8000, line); err != nil {
		t.Fatal(err)
	}
	got, guardedLat, ok := c.ReadLine(0x8000, true)
	if !ok {
		t.Fatal("clean PTE read failed check")
	}
	if got != line {
		t.Error("PTE not restored after strip")
	}
	_, baseLat, _ := base.ReadLine(0x8000, true)
	if guardedLat != baseLat+core.DefaultMACLatencyCycles {
		t.Errorf("guarded latency = %d, want base %d + %d MAC",
			guardedLat, baseLat, core.DefaultMACLatencyCycles)
	}
}

func TestTamperedPTEReadFailsClosed(t *testing.T) {
	g := testGuard(t, nil)
	c, err := New(testDevice(t), g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteLine(0x8000, pteLine(0x300)); err != nil {
		t.Fatal(err)
	}
	// Rowhammer the stored image directly.
	h, err := dram.NewHammerer(c.Device(), dram.HammerConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h.FlipLineBits(0x8000, []int{2}) // user-accessible bit of PTE 0
	line, _, ok := c.ReadLine(0x8000, true)
	if ok {
		t.Fatal("tampered PTE read returned ok")
	}
	if line != (pte.Line{}) {
		t.Error("faulty line leaked despite CheckFailed")
	}
	if c.Stats().CheckFailures != 1 {
		t.Error("CheckFailures not counted")
	}
}

func TestCorrectionRepairsAndPersists(t *testing.T) {
	g := testGuard(t, func(cfg *core.Config) {
		cfg.EnableCorrection = true
		cfg.SoftMatchK = 4
	})
	c, err := New(testDevice(t), g, 0)
	if err != nil {
		t.Fatal(err)
	}
	line := pteLine(0x400)
	if _, err := c.WriteLine(0xC000, line); err != nil {
		t.Fatal(err)
	}
	h, _ := dram.NewHammerer(c.Device(), dram.HammerConfig{Seed: 2})
	h.FlipLineBits(0xC000, []int{13}) // PFN bit of PTE 0
	got, lat, ok := c.ReadLine(0xC000, true)
	if !ok || got != line {
		t.Fatalf("correction failed: ok=%v", ok)
	}
	if c.Stats().CorrectedReads != 1 {
		t.Error("CorrectedReads not counted")
	}
	// Correction guesses serialise on the MAC unit: latency far above a
	// single MAC delay (timing side channel of §VI-E).
	if lat < dram.DefaultTiming().RowEmpty+2*core.DefaultMACLatencyCycles {
		t.Errorf("corrected read latency %d suspiciously low", lat)
	}
	// The repair must persist: the next read is clean and fast.
	got2, _, ok2 := c.ReadLine(0xC000, true)
	if !ok2 || got2 != line {
		t.Error("repair did not persist")
	}
	if c.Stats().CorrectedReads != 1 {
		t.Error("second read should not need correction")
	}
}

func TestContentionAddsLatency(t *testing.T) {
	quiet, _ := New(testDevice(t), nil, 0)
	busy, _ := New(testDevice(t), nil, 50)
	_, a, _ := quiet.ReadLine(0x1000, false)
	_, b, _ := busy.ReadLine(0x1000, false)
	if b != a+50 {
		t.Errorf("contention latency: quiet=%d busy=%d", a, b)
	}
}

func TestWriteMACOffCriticalPath(t *testing.T) {
	g := testGuard(t, nil)
	c, _ := New(testDevice(t), g, 0)
	if _, err := c.WriteLine(0x2000, pteLine(0x500)); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.WriteMACCycles == 0 {
		t.Error("write MAC cycles not accounted")
	}
	if s.ReadMACCycles != 0 {
		t.Error("write charged to the read path")
	}
}

func TestRekeyPreservesProtectionAndData(t *testing.T) {
	g := testGuard(t, nil)
	c, err := New(testDevice(t), g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// One PTE line, one dense data line.
	pteL := pteLine(0x600)
	if _, err := c.WriteLine(0x1000, pteL); err != nil {
		t.Fatal(err)
	}
	var data pte.Line
	for i := range data {
		data[i] = pte.Entry(0x1234567890ABCDEF + uint64(i))
	}
	if _, err := c.WriteLine(0x2000, data); err != nil {
		t.Fatal(err)
	}
	oldImage := c.Device().ReadLine(0x1000)
	// A walk read re-verifies the line just written, so the old guard
	// serves its MAC from the memo; the stale old-key image below must
	// still fail under the new guard.
	if got, _, ok := c.ReadLine(0x1000, true); !ok || got != pteL {
		t.Fatal("walk read under the old key failed")
	}
	reg := obs.NewRegistry()
	c.PublishObs(reg)
	if hits := reg.Snapshot().Counters["guard.mac_memo_hits"]; hits != 1 {
		t.Fatalf("old guard memo hits = %d, want 1", hits)
	}

	newKey := make([]byte, mac.KeySize)
	r := stats.NewRNG(0xFEED)
	for i := range newKey {
		newKey[i] = byte(r.Uint64())
	}
	st, err := c.Rekey(newKey)
	if err != nil {
		t.Fatal(err)
	}
	if st.LinesScanned < 2 || st.Remacced < 1 {
		t.Errorf("rekey stats = %+v", st)
	}
	// The stored PTE image must have changed (different key, new MAC)...
	if c.Device().ReadLine(0x1000) == oldImage {
		t.Error("PTE line image unchanged across rekey")
	}
	// ...but a walk under the new guard still verifies and restores it.
	got, _, ok := c.ReadLine(0x1000, true)
	if !ok || got != pteL {
		t.Error("post-rekey walk failed")
	}
	// Data line is untouched in value.
	gotData, _, ok := c.ReadLine(0x2000, false)
	if !ok || gotData != data {
		t.Error("data line changed across rekey")
	}
	// Old-key MACs must no longer verify: simulate a stale image.
	c.Device().WriteLine(0x1000, oldImage)
	if _, _, ok := c.ReadLine(0x1000, true); ok {
		t.Error("stale old-key MAC accepted after rekey")
	}
}

func TestRekeyClearsCollisions(t *testing.T) {
	g := testGuard(t, nil)
	c, err := New(testDevice(t), g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Build a colliding line under the old key the hard way: write a
	// protected line, then splice its (address-bound) MAC back as data.
	var line pte.Line
	line[0] = pte.Entry(0xAAA) &^ pte.Entry(pte.MaskMAC|pte.MaskIdentifier)
	res, err := c.WriteLine(0x3000, line)
	_ = res
	if err != nil {
		t.Fatal(err)
	}
	forged := c.Device().ReadLine(0x3000) // data | embedded MAC
	if _, err := c.WriteLine(0x3000, forged); err != nil {
		t.Fatal(err)
	}
	if c.Guard().CTBLen() != 1 {
		t.Fatalf("forged line not tracked: CTB len %d", c.Guard().CTBLen())
	}
	newKey := make([]byte, mac.KeySize)
	newKey[0] = 0x42
	if _, err := c.Rekey(newKey); err != nil {
		t.Fatal(err)
	}
	if c.Guard().CTBLen() != 0 {
		t.Errorf("CTB len = %d after rekey, want 0", c.Guard().CTBLen())
	}
	// The forged line's data must survive the sweep byte for byte.
	got, _, ok := c.ReadLine(0x3000, false)
	if !ok || got != forged {
		t.Error("colliding line data changed across rekey")
	}
}

// TestRekeyOverflowLeavesMemoryAndGuard: a sweep whose new-key writes
// overflow the new guard's CTB must store nothing and keep the old guard.
// The colliding lines are images sealed under the new key, stored as data
// under the old one.
func TestRekeyOverflowLeavesMemoryAndGuard(t *testing.T) {
	newKey := fuzzKey(0xC0111DE)
	scratch, err := New(testDevice(t), testGuard(t, func(c *core.Config) { c.Key = newKey }), 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(testDevice(t), testGuard(t, nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= core.DefaultCTBEntries; i++ {
		addr := uint64(0x10000 + i*0x40)
		if _, err := scratch.WriteLine(addr, pteLine(0x900+uint64(i)*8)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.WriteLine(addr, scratch.Device().ReadLine(addr)); err != nil {
			t.Fatal(err)
		}
	}
	line := pteLine(0x700)
	if _, err := c.WriteLine(0x20000, line); err != nil {
		t.Fatal(err)
	}
	image := func() map[uint64]pte.Line {
		m := make(map[uint64]pte.Line)
		c.Device().Lines(func(a uint64, l pte.Line) { m[a] = l })
		return m
	}
	before, stored, old := image(), c.Device().StoredLines(), c.Guard()

	if _, err := c.Rekey(newKey); !errors.Is(err, core.ErrCTBFull) {
		t.Fatalf("Rekey error = %v, want ErrCTBFull", err)
	}
	if got := c.Device().StoredLines(); got != stored {
		t.Errorf("stored lines = %d, want %d", got, stored)
	}
	for a, l := range image() {
		if before[a] != l {
			t.Errorf("line %#x changed by the failed rekey", a)
		}
	}
	if c.Guard() != old {
		t.Error("failed rekey replaced the guard")
	}
	if got, _, ok := c.ReadLine(0x20000, true); !ok || got != line {
		t.Error("walk of the protected line fails after the failed rekey")
	}
}

func TestRekeyRequiresGuard(t *testing.T) {
	c, _ := New(testDevice(t), nil, 0)
	if _, err := c.Rekey(make([]byte, mac.KeySize)); err == nil {
		t.Error("rekey without guard accepted")
	}
}
