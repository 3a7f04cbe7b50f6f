package dram

import (
	"runtime"
	"testing"
	"testing/quick"

	"ptguard/internal/mitigate"
	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

func newTestDevice(tb testing.TB) *Device {
	tb.Helper()
	d, err := NewDevice(Geometry{}, Timing{})
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// rowFlips returns the flips attributed to the row containing addr.
func rowFlips(d *Device, addr uint64) uint64 {
	loc := d.Locate(addr)
	return d.flips[d.rowIndex(loc.Channel*d.geo.BanksPerChannel+loc.Bank, loc.Row)]
}

// bankFlips returns per-bank flip totals, indexed by the global bank index
// (channel*BanksPerChannel + bank).
func bankFlips(d *Device) []uint64 {
	out := make([]uint64, d.geo.Channels*d.geo.BanksPerChannel)
	for idx, n := range d.flips {
		out[int(idx)/d.geo.RowsPerBank] += n
	}
	return out
}

// trackedHammerer runs the named registry tracker ("trr" or "softtrr") over
// d/h. TRR gets one sampler slot per row, so it never misses an aggressor:
// the unlimited-capacity sampler these tests pin.
func trackedHammerer(t *testing.T, d *Device, h *Hammerer, name string, sampler int) *MitigatedHammerer {
	t.Helper()
	cfg := trackerConfig(d, sampler)
	cfg.TableSize = cfg.RowsPerBank
	m, err := mitigate.New(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mh, err := NewMitigatedHammerer(d, h, MitigationConfig{Mitigator: m})
	if err != nil {
		t.Fatal(err)
	}
	return mh
}

// registerPTERow marks the row holding addr as a page-table row for the
// SoftTRR tracker behind mh, as the kernel would from its own allocations.
func registerPTERow(d *Device, mh *MitigatedHammerer, addr uint64) {
	loc := d.Locate(addr)
	mh.cfg.Mitigator.(mitigate.RowRegistrar).RegisterRow(loc.Channel*d.Geometry().BanksPerChannel+loc.Bank, loc.Row)
}

func TestDefaultGeometryCapacity(t *testing.T) {
	// Table III: 4 GB DDR4.
	if got := DefaultGeometry().Capacity(); got != 4<<30 {
		t.Errorf("capacity = %d, want 4 GiB", got)
	}
}

func TestNewDeviceValidation(t *testing.T) {
	if _, err := NewDevice(Geometry{Channels: -1, BanksPerChannel: 1, RowsPerBank: 1, RowBytes: 64}, Timing{}); err == nil {
		t.Error("negative channels accepted")
	}
	if _, err := NewDevice(Geometry{Channels: 1, BanksPerChannel: 1, RowsPerBank: 1, RowBytes: 32}, Timing{}); err == nil {
		t.Error("row smaller than a line accepted")
	}
}

func TestLocateAddrOfRowInverse(t *testing.T) {
	d := newTestDevice(t)
	f := func(bank uint8, row uint16, col uint8) bool {
		b := int(bank) % d.geo.BanksPerChannel
		r := int(row) % d.geo.RowsPerBank
		c := int(col) % (d.geo.RowBytes / pte.LineBytes)
		loc := d.Locate(d.AddrOfRow(b, r, c))
		return loc.Bank == b && loc.Row == r && loc.Column == c && loc.Channel == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRowBufferTiming(t *testing.T) {
	d := newTestDevice(t)
	a := d.AddrOfRow(3, 100, 0)
	b := d.AddrOfRow(3, 100, 5) // same row, different column
	c := d.AddrOfRow(3, 200, 0) // same bank, different row

	if got := d.Access(a, false); got != DefaultTiming().RowEmpty {
		t.Errorf("first access latency = %d, want RowEmpty %d", got, DefaultTiming().RowEmpty)
	}
	if got := d.Access(b, false); got != DefaultTiming().RowHit {
		t.Errorf("row-hit latency = %d, want %d", got, DefaultTiming().RowHit)
	}
	if got := d.Access(c, false); got != DefaultTiming().RowConflict {
		t.Errorf("row-conflict latency = %d, want %d", got, DefaultTiming().RowConflict)
	}
	if got := d.Access(c, true); got != DefaultTiming().RowHit+DefaultTiming().WriteExtra {
		t.Errorf("write latency = %d", got)
	}
	s := d.Stats()
	if s.Reads != 3 || s.Writes != 1 || s.RowHits != 2 || s.RowMisses != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestActivationTrackingAndRefresh(t *testing.T) {
	d := newTestDevice(t)
	a := d.AddrOfRow(1, 50, 0)
	b := d.AddrOfRow(1, 60, 0)
	for i := 0; i < 5; i++ {
		d.Access(a, false) // activate row 50
		d.Access(b, false) // conflict activates row 60
	}
	if got := d.Activations(a); got != 5 {
		t.Errorf("activations = %d, want 5", got)
	}
	d.RefreshWindow()
	if got := d.Activations(a); got != 0 {
		t.Errorf("activations after refresh = %d, want 0", got)
	}
}

func TestLineStorageRoundTrip(t *testing.T) {
	d := newTestDevice(t)
	var line pte.Line
	line[0] = pte.Entry(0xDEADBEEF)
	d.WriteLine(0x1040, line)
	if got := d.ReadLine(0x1040); got != line {
		t.Error("line storage round trip failed")
	}
	// Unaligned address maps to the containing line.
	if got := d.ReadLine(0x1077); got != line {
		t.Error("unaligned read missed the containing line")
	}
	if got := d.ReadLine(0x2000); got != (pte.Line{}) {
		t.Error("unwritten line not zero")
	}
}

// TestLinesAscendingWhateverTheWriteOrder writes the same 200 lines to two
// devices in different orders: Lines must visit both in the same, ascending
// sequence, so the re-key sweep is reproducible.
func TestLinesAscendingWhateverTheWriteOrder(t *testing.T) {
	r := stats.NewRNG(5)
	addrs := make([]uint64, 200)
	for i := range addrs {
		addrs[i] = r.Uint64() >> 30 &^ (pte.LineBytes - 1)
	}
	a, b := newTestDevice(t), newTestDevice(t)
	for i, addr := range addrs {
		a.WriteLine(addr, pte.Line{pte.Entry(addr)})
		b.WriteLine(addrs[len(addrs)-1-i], pte.Line{pte.Entry(addrs[len(addrs)-1-i])})
	}
	var seqA, seqB []uint64
	a.Lines(func(addr uint64, line pte.Line) {
		if line[0] != pte.Entry(addr) {
			t.Fatalf("line %#x visited with the content of %#x", addr, uint64(line[0]))
		}
		seqA = append(seqA, addr)
	})
	b.Lines(func(addr uint64, _ pte.Line) { seqB = append(seqB, addr) })
	if len(seqA) != a.StoredLines() || len(seqA) != len(seqB) {
		t.Fatalf("visited %d and %d lines, stored %d", len(seqA), len(seqB), a.StoredLines())
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("visit %d: %#x on one device, %#x on the other", i, seqA[i], seqB[i])
		}
		if i > 0 && seqA[i] <= seqA[i-1] {
			t.Fatalf("visit %d at %#x after %#x", i, seqA[i], seqA[i-1])
		}
	}
}

func TestHammerBelowThresholdNoFlips(t *testing.T) {
	d := newTestDevice(t)
	h, err := NewHammerer(d, HammerConfig{Threshold: 1000, FlipProb: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	victim := d.AddrOfRow(2, 101, 0)
	var data pte.Line
	data[0] = 0x1234
	d.WriteLine(victim, data)
	agg := d.AddrOfRow(2, 100, 0)
	if rows := h.HammerRow(agg, 999, []int{+1}); rows != nil {
		t.Errorf("flips below threshold: %v", rows)
	}
	if d.ReadLine(victim) != data {
		t.Error("victim changed below threshold")
	}
}

func TestHammerAboveThresholdFlips(t *testing.T) {
	d := newTestDevice(t)
	h, err := NewHammerer(d, HammerConfig{Threshold: 1000, FlipProb: 0.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	victim := d.AddrOfRow(2, 101, 0)
	var data pte.Line
	d.WriteLine(victim, data)
	agg := d.AddrOfRow(2, 100, 0)
	rows := h.HammerRow(agg, 2000, []int{+1})
	if len(rows) != 1 || rows[0] != 101 {
		t.Fatalf("flipped rows = %v, want [101]", rows)
	}
	if d.ReadLine(victim) == data {
		t.Error("victim unchanged above threshold at p=0.5")
	}
	if h.FlipsInjected() == 0 {
		t.Error("flip counter not incremented")
	}
}

func TestDoubleSidedFlipsVictim(t *testing.T) {
	d := newTestDevice(t)
	h, err := NewHammerer(d, HammerConfig{Threshold: ThresholdDDR4, FlipProb: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	victim := d.AddrOfRow(4, 500, 0)
	var data pte.Line
	d.WriteLine(victim, data)
	if got := h.DoubleSided(victim, ThresholdDDR4); got != 2 {
		t.Errorf("double-sided hit count = %d, want 2 (both sides)", got)
	}
	if d.ReadLine(victim) == data {
		t.Error("double-sided hammering left victim intact")
	}
}

func TestInjectLineFaultsRate(t *testing.T) {
	d := newTestDevice(t)
	h, err := NewHammerer(d, HammerConfig{FlipProb: FlipProbLPDDR4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	d.WriteLine(0x4000, pte.Line{})
	total := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		d.WriteLine(0x4000, pte.Line{})
		total += h.InjectFaults(0x4000)
	}
	// Expected flips per 512-bit line at p=1/128 is 4.
	avg := float64(total) / trials
	if avg < 3.5 || avg > 4.5 {
		t.Errorf("average flips per line = %.2f, want ~4", avg)
	}
}

func TestFlipLineBitsSurgical(t *testing.T) {
	d := newTestDevice(t)
	h, err := NewHammerer(d, HammerConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	d.WriteLine(0x8000, pte.Line{})
	h.FlipLineBits(0x8000, []int{0, 64, 511})
	got := d.ReadLine(0x8000)
	if uint64(got[0]) != 1 || uint64(got[1]) != 1 || uint64(got[7]) != 1<<63 {
		t.Errorf("surgical flips wrong: %v", got)
	}
	// Out-of-range bits are ignored.
	h.FlipLineBits(0x8000, []int{-1, 512})
	if d.ReadLine(0x8000) != got {
		t.Error("out-of-range flip changed the line")
	}
}

func TestTRRBlocksClassicHammer(t *testing.T) {
	// With the sampler threshold far below the flip threshold, classic
	// distance-1 hammering never flips: victims are refreshed in time.
	d := newTestDevice(t)
	h, err := NewHammerer(d, HammerConfig{Threshold: ThresholdDDR4, FlipProb: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	trr := trackedHammerer(t, d, h, "trr", ThresholdDDR4/4)
	victim := d.AddrOfRow(5, 300, 0)
	var data pte.Line
	d.WriteLine(victim, data)
	agg := d.AddrOfRow(5, 299, 0)
	flipped := trr.Hammer(agg, 10*ThresholdDDR4)
	for _, r := range flipped {
		if r == 300 {
			t.Fatal("TRR failed to protect the distance-1 victim")
		}
	}
	if trr.Refreshes() == 0 {
		t.Error("TRR never mitigated")
	}
}

func TestHalfDoubleDefeatsTRR(t *testing.T) {
	// §II-B: hammering row R while TRR refreshes R±1 flips bits in R±2.
	// Each mitigative refresh is one activation of the refreshed row, so
	// the distance-2 victim needs sampler*threshold aggressor activations
	// to flip; scaled-down thresholds keep the test fast.
	const (
		flipThreshold = 1000
		sampler       = 100
	)
	d := newTestDevice(t)
	h, err := NewHammerer(d, HammerConfig{Threshold: flipThreshold, FlipProb: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	trr := trackedHammerer(t, d, h, "trr", sampler)
	// The true victim sits at distance 2 from the aggressor.
	victim := d.AddrOfRow(5, 302, 0)
	var data pte.Line
	d.WriteLine(victim, data)
	agg := d.AddrOfRow(5, 300, 0)
	flipped := trr.Hammer(agg, 2*sampler*flipThreshold)
	hitVictim := false
	for _, r := range flipped {
		if r == 302 {
			hitVictim = true
		}
		if r == 299 || r == 301 {
			t.Errorf("distance-1 row %d flipped despite TRR", r)
		}
	}
	if !hitVictim {
		t.Error("Half-Double failed to reach the distance-2 victim")
	}
	if d.ReadLine(victim) == data {
		t.Error("distance-2 victim data unchanged")
	}
}

func TestHammererValidation(t *testing.T) {
	d := newTestDevice(t)
	if _, err := NewHammerer(nil, HammerConfig{}); err == nil {
		t.Error("nil device accepted")
	}
	if _, err := NewHammerer(d, HammerConfig{FlipProb: 1.5}); err == nil {
		t.Error("flip prob > 1 accepted")
	}
	if _, err := NewMitigatedHammerer(d, nil, MitigationConfig{}); err == nil {
		t.Error("nil hammerer accepted")
	}
}

func TestDeterministicFaultInjection(t *testing.T) {
	mk := func() *Device {
		d := newTestDevice(t)
		var line pte.Line
		d.WriteLine(0x1000, line)
		h, _ := NewHammerer(d, HammerConfig{FlipProb: 0.1, Seed: 99})
		h.InjectFaults(0x1000)
		return d
	}
	if mk().ReadLine(0x1000) != mk().ReadLine(0x1000) {
		t.Error("same seed produced different faults")
	}
	_ = stats.NewRNG // keep import if unused elsewhere
}

func TestSoftTRRProtectsRegisteredPTERow(t *testing.T) {
	const (
		flipThreshold = 1000
		sampler       = 100
	)
	d := newTestDevice(t)
	h, err := NewHammerer(d, HammerConfig{Threshold: flipThreshold, FlipProb: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	st := trackedHammerer(t, d, h, "softtrr", sampler)
	pteRow := d.AddrOfRow(3, 400, 0)
	var data pte.Line
	d.WriteLine(pteRow, data)
	registerPTERow(d, st, pteRow)
	agg := d.AddrOfRow(3, 399, 0)
	flipped := st.Hammer(agg, 5*flipThreshold)
	for _, r := range flipped {
		if r == 400 {
			t.Fatal("registered PTE row flipped despite SoftTRR")
		}
	}
	if st.Refreshes() == 0 {
		t.Error("SoftTRR never mitigated")
	}
}

func TestSoftTRRIgnoresUnregisteredRows(t *testing.T) {
	// SoftTRR only watches page-table rows; ordinary data rows next to a
	// hot aggressor flip as if unprotected.
	const flipThreshold = 1000
	d := newTestDevice(t)
	h, err := NewHammerer(d, HammerConfig{Threshold: flipThreshold, FlipProb: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	st := trackedHammerer(t, d, h, "softtrr", flipThreshold/10)
	victim := d.AddrOfRow(3, 500, 0)
	var data pte.Line
	d.WriteLine(victim, data)
	agg := d.AddrOfRow(3, 499, 0)
	flipped := st.Hammer(agg, 2*flipThreshold)
	found := false
	for _, r := range flipped {
		if r == 500 {
			found = true
		}
	}
	if !found {
		t.Error("unregistered data row survived; SoftTRR should not protect it")
	}
}

func TestHalfDoubleDefeatsSoftTRR(t *testing.T) {
	// §II-E item 3: SoftTRR inherits TRR's weakness — the mitigation's
	// refreshes of the distance-1 PTE row disturb the distance-2 PTE row.
	const (
		flipThreshold = 1000
		sampler       = 100
	)
	d := newTestDevice(t)
	h, err := NewHammerer(d, HammerConfig{Threshold: flipThreshold, FlipProb: 0.5, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	st := trackedHammerer(t, d, h, "softtrr", sampler)
	near := d.AddrOfRow(4, 601, 0) // distance 1: registered and mitigated
	far := d.AddrOfRow(4, 602, 0)  // distance 2: the Half-Double victim
	var data pte.Line
	d.WriteLine(near, data)
	d.WriteLine(far, data)
	registerPTERow(d, st, near)
	registerPTERow(d, st, far)
	agg := d.AddrOfRow(4, 600, 0)
	flipped := st.Hammer(agg, 2*sampler*flipThreshold)
	hitFar := false
	for _, r := range flipped {
		if r == 601 {
			t.Error("distance-1 PTE row flipped despite mitigation")
		}
		if r == 602 {
			hitFar = true
		}
	}
	if !hitFar {
		t.Error("Half-Double failed to flip the distance-2 PTE row through SoftTRR")
	}
}

func TestSoftTRRValidation(t *testing.T) {
	d := newTestDevice(t)
	h, _ := NewHammerer(d, HammerConfig{Seed: 1})
	if _, err := NewMitigatedHammerer(nil, h, MitigationConfig{}); err == nil {
		t.Error("nil device accepted")
	}
	if _, err := mitigate.New("softtrr", trackerConfig(d, 0)); err == nil {
		t.Error("zero sampler accepted")
	}
}

// TestFirstFlipAllocatesLittle: flip attribution is sparse, so a device's
// first injected flip does not allocate a counter for every row of the
// module (4 MB at the default geometry).
func TestFirstFlipAllocatesLittle(t *testing.T) {
	d := newTestDevice(t)
	victim := d.AddrOfRow(3, 700, 5)
	d.WriteLine(victim, pte.Line{})
	h, err := NewHammerer(d, HammerConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.FlipLineBits(victim, []int{1})
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("the first flip allocated %d bytes, want under 64 KB", got)
	}
	if rowFlips(d, victim) != 1 {
		t.Errorf("the first flip attributed %d flips to its row, want 1", rowFlips(d, victim))
	}
}

// TestFlipAttributionBeforeAndAfterFirstFlip: a device that has only been
// read and written reports no flips anywhere, and its first injected flip
// is attributed to the right (bank, row) like every later one.
func TestFlipAttributionBeforeAndAfterFirstFlip(t *testing.T) {
	d := newTestDevice(t)
	victim := d.AddrOfRow(3, 700, 5)
	other := d.AddrOfRow(9, 12, 0)
	for _, a := range []uint64{victim, other} {
		d.WriteLine(a, pte.Line{})
		d.Access(a, false)
	}
	if got := d.FlipCounts(); len(got) != 0 {
		t.Errorf("FlipCounts = %v before any flip, want none", got)
	}
	for bank, n := range bankFlips(d) {
		if n != 0 {
			t.Errorf("bank %d has %d flips before any flip", bank, n)
		}
	}
	if got := len(bankFlips(d)); got != d.Geometry().BanksPerChannel {
		t.Errorf("bankFlips has %d banks, want %d", got, d.Geometry().BanksPerChannel)
	}
	if rowFlips(d, victim) != 0 || d.Stats().FlipsInjected != 0 {
		t.Error("a row reports flips before any flip")
	}

	h, err := NewHammerer(d, HammerConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	h.FlipLineBits(victim, []int{1, 2, 300})
	h.FlipLineBits(other, []int{7})
	h.FlipLineBits(victim, []int{9})
	want := []FlipCount{{Bank: 3, Row: 700, Flips: 4}, {Bank: 9, Row: 12, Flips: 1}}
	got := d.FlipCounts()
	if len(got) != len(want) {
		t.Fatalf("FlipCounts = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("FlipCounts[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	banks := bankFlips(d)
	if banks[3] != 4 || banks[9] != 1 {
		t.Errorf("bankFlips = %v, want 4 in bank 3 and 1 in bank 9", banks)
	}
	if rowFlips(d, victim) != 4 || rowFlips(d, other) != 1 || rowFlips(d, d.AddrOfRow(3, 701, 0)) != 0 {
		t.Errorf("RowFlips = %d/%d, want 4/1", rowFlips(d, victim), rowFlips(d, other))
	}
	if d.Stats().FlipsInjected != 5 {
		t.Errorf("FlipsInjected = %d, want 5", d.Stats().FlipsInjected)
	}
}
