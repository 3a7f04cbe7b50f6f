// Package dram models the DRAM device PT-Guard sits in front of: bank/row
// geometry, open-page timing, backing storage for 64-byte lines, and the
// Rowhammer disturbance model used for fault injection (paper §II, §VI-F).
package dram

import (
	"fmt"
	"slices"
	"sort"

	"ptguard/internal/obs"
	"ptguard/internal/pte"
)

// Geometry describes the module layout. The defaults model the paper's 4 GB
// DDR4 channel (Table III).
type Geometry struct {
	// Channels is the number of independent channels.
	Channels int
	// BanksPerChannel is the total banks (ranks x bank groups x banks).
	BanksPerChannel int
	// RowsPerBank is the number of DRAM rows in each bank.
	RowsPerBank int
	// RowBytes is the row (page) size in bytes.
	RowBytes int
}

// DefaultGeometry returns the 4 GB DDR4 layout of Table III: 1 channel,
// 16 banks, 32 Ki rows of 8 KB.
func DefaultGeometry() Geometry {
	return Geometry{Channels: 1, BanksPerChannel: 16, RowsPerBank: 1 << 15, RowBytes: 8192}
}

// Capacity returns the module capacity in bytes.
func (g Geometry) Capacity() uint64 {
	return uint64(g.Channels) * uint64(g.BanksPerChannel) * uint64(g.RowsPerBank) * uint64(g.RowBytes)
}

// Timing holds access latencies in CPU cycles at the core clock (3 GHz).
// They fold in controller queueing and bus transfer, sized so a typical
// LLC-miss-to-DRAM round trip costs ~200-260 cycles.
type Timing struct {
	// RowHit is the latency when the row buffer already holds the row.
	RowHit int
	// RowEmpty is the latency when the bank is precharged (activate+CAS).
	RowEmpty int
	// RowConflict is the latency when another row must first precharge.
	RowConflict int
	// WriteExtra is added to writes (write recovery).
	WriteExtra int
}

// DefaultTiming returns DDR4-like latencies at 3 GHz.
func DefaultTiming() Timing {
	return Timing{RowHit: 160, RowEmpty: 210, RowConflict: 260, WriteExtra: 20}
}

// Location identifies a line's physical placement.
type Location struct {
	Channel int
	Bank    int
	Row     int
	Column  int
}

// actChunkRows is the number of rows whose activation counters are
// allocated together (4 KB of int32 counters).
const actChunkRows = 1024

// Device is a DRAM module: sparse line storage plus per-bank row-buffer
// state and per-row activation counters for the Rowhammer model.
// Device is not safe for concurrent use.
//
// Stored lines sit behind a page index: a map from 4 KB page number to a
// page record that gives each of the page's 64 lines its slot in a dense
// slab (or none) and the sealer, if any, that owes its seal. The slab
// holds one 64-byte slot per stored line, in first-write order, so a
// sparsely touched page costs its record and the lines actually stored,
// not 4 KB. Page records and slab slots are allocated a chunk at a time
// (pageChunk records, slabChunk lines), and the last page looked up is
// cached, so a table flush, which writes a page's 64 lines in a row,
// pays one map lookup per page.
//
// The per-row bookkeeping (activation counters, flip attribution) is
// indexed by bank*RowsPerBank+row: the geometry is fixed at construction,
// so a direct index replaces the map hashing that used to dominate the
// activate path, and the refresh window resets in place instead of
// reallocating. The activation counters are allocated a chunk of
// actChunkRows rows at a time, on the first activation of one of its rows:
// a simulated machine activates a few hundred rows, and skips zeroing an
// int32 per row (2 MB at the default geometry). The flip counters are
// allocated by the first injected flip: only hammer, fault and attack
// campaigns inject flips, and a simulated machine that never does skips
// zeroing a uint64 per row (4 MB at the default geometry).
type Device struct {
	geo    Geometry
	timing Timing

	// pages maps a 4 KB page number to the record of its stored lines;
	// lastPN and last cache the most recent hit (last is nil until the
	// first). spare holds the unused records of the newest chunk.
	pages  map[uint64]*page
	lastPN uint64
	last   *page
	spare  []page
	// slab holds the stored line images, slabChunk lines per chunk, in
	// first-write order; stored counts them, sealed or not.
	slab   []*[slabChunk]pte.Line
	stored int
	// sealers[i] owes pending[i] unsealed lines (nil when it owes none);
	// unsealed is their sum.
	sealers  []Sealer
	pending  []int
	unsealed int

	// openRow tracks the row latched in each bank's row buffer (-1 when
	// precharged). Indexed by channel*BanksPerChannel+bank.
	openRow []int

	// actChunks counts row activations since the last refresh window:
	// row rowIndex's counter sits at index rowIndex%actChunkRows of chunk
	// rowIndex/actChunkRows, nil until one of its rows is activated.
	// actTouched lists the indices with a non-zero count so RefreshWindow
	// clears only what was touched (O(hot rows), allocation-free) instead
	// of zeroing the whole module.
	actChunks  []*[actChunkRows]int32
	actTouched []int32

	// flips attributes injected bit flips to their rowIndex, so fault
	// campaigns can tell which rows and banks ate the faults. Flips land
	// on a handful of rows, so it is sparse (as Ramulator2's OracleRH
	// keeps its per-bank counters) and nil until the first flip.
	flips      map[int32]uint64
	flipsTotal uint64

	reads, writes, rowHits, rowMisses uint64
	refreshWindows                    uint64

	// o, when set, receives row-activation and fault-injection trace
	// events (nil = observability disabled, the zero-overhead default).
	o *obs.Observer
}

// rowIndex flattens (global bank index, row) into the dense bookkeeping
// slices' index space.
func (d *Device) rowIndex(bankIdx, row int) int32 {
	return int32(bankIdx*d.geo.RowsPerBank + row)
}

// NewDevice builds a device; zero-value Geometry/Timing select defaults.
func NewDevice(geo Geometry, timing Timing) (*Device, error) {
	if geo == (Geometry{}) {
		geo = DefaultGeometry()
	}
	if timing == (Timing{}) {
		timing = DefaultTiming()
	}
	if geo.Channels <= 0 || geo.BanksPerChannel <= 0 || geo.RowsPerBank <= 0 || geo.RowBytes < pte.LineBytes {
		return nil, fmt.Errorf("dram: invalid geometry %+v", geo)
	}
	nBanks := geo.Channels * geo.BanksPerChannel
	open := make([]int, nBanks)
	for i := range open {
		open[i] = -1
	}
	nRows := nBanks * geo.RowsPerBank
	return &Device{
		geo:       geo,
		timing:    timing,
		pages:     make(map[uint64]*page),
		openRow:   open,
		actChunks: make([]*[actChunkRows]int32, (nRows+actChunkRows-1)/actChunkRows),
	}, nil
}

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.geo }

// Locate maps a physical line address to its channel/bank/row/column using
// a row:bank:column interleaving (consecutive lines stripe across banks so
// streaming workloads hit open rows).
func (d *Device) Locate(addr uint64) Location {
	line := addr / pte.LineBytes
	linesPerRow := uint64(d.geo.RowBytes / pte.LineBytes)
	col := int(line % linesPerRow)
	line /= linesPerRow
	bank := int(line % uint64(d.geo.BanksPerChannel))
	line /= uint64(d.geo.BanksPerChannel)
	ch := int(line % uint64(d.geo.Channels))
	row := int(line / uint64(d.geo.Channels) % uint64(d.geo.RowsPerBank))
	return Location{Channel: ch, Bank: bank, Row: row, Column: col}
}

// RowBase returns the physical address of the first line in the same row as
// addr, plus the number of lines per row. Useful for placing victims.
func (d *Device) RowBase(addr uint64) (uint64, int) {
	linesPerRow := d.geo.RowBytes / pte.LineBytes
	rowSpan := uint64(linesPerRow * pte.LineBytes)
	return addr / rowSpan * rowSpan, linesPerRow
}

// AddrOfRow returns a physical address residing in (bank, row) of channel 0,
// at the given column. It inverts Locate for attack placement.
func (d *Device) AddrOfRow(bank, row, column int) uint64 {
	linesPerRow := uint64(d.geo.RowBytes / pte.LineBytes)
	line := uint64(row)*uint64(d.geo.Channels)*uint64(d.geo.BanksPerChannel) +
		uint64(bank) // channel 0
	return (line*linesPerRow + uint64(column)) * pte.LineBytes
}

// Access performs a timing access to the line at addr, returning its
// latency in CPU cycles. It updates the row buffer and the activation
// counter feeding the Rowhammer model.
func (d *Device) Access(addr uint64, write bool) int {
	loc := d.Locate(addr)
	bankIdx := loc.Channel*d.geo.BanksPerChannel + loc.Bank
	var lat int
	switch d.openRow[bankIdx] {
	case loc.Row:
		lat = d.timing.RowHit
		d.rowHits++
	case -1:
		lat = d.timing.RowEmpty
		d.activate(bankIdx, loc.Row)
		d.rowMisses++
	default:
		lat = d.timing.RowConflict
		d.activate(bankIdx, loc.Row)
		d.rowMisses++
	}
	d.openRow[bankIdx] = loc.Row
	if write {
		lat += d.timing.WriteExtra
		d.writes++
	} else {
		d.reads++
	}
	return lat
}

func (d *Device) activate(bankIdx, row int) {
	d.addActivations(bankIdx, row, 1)
	if d.o != nil {
		d.o.EmitArgs("dram", "act", 0,
			map[string]uint64{"bank": uint64(bankIdx), "row": uint64(row)})
	}
}

// addActivations bumps a row's activation counter, registering the row in
// the touched list on its first activation of the window, and returns the
// new count. It is the single mutation point for the counters.
func (d *Device) addActivations(bankIdx, row, count int) int {
	idx := d.rowIndex(bankIdx, row)
	n := d.actCounter(idx)
	if *n == 0 && count != 0 {
		d.actTouched = append(d.actTouched, idx)
	}
	*n += int32(count)
	return int(*n)
}

// actCounter returns row idx's activation counter, allocating its chunk on
// the chunk's first use.
func (d *Device) actCounter(idx int32) *int32 {
	c := d.actChunks[idx/actChunkRows]
	if c == nil {
		c = new([actChunkRows]int32)
		d.actChunks[idx/actChunkRows] = c
	}
	return &c[idx%actChunkRows]
}

// Activations returns the activation count of the row containing addr since
// the last refresh window.
func (d *Device) Activations(addr uint64) int {
	loc := d.Locate(addr)
	idx := d.rowIndex(loc.Channel*d.geo.BanksPerChannel+loc.Bank, loc.Row)
	if c := d.actChunks[idx/actChunkRows]; c != nil {
		return int(c[idx%actChunkRows])
	}
	return 0
}

// RefreshWindow models the periodic auto-refresh: activation counters reset
// (charge restored) and all banks precharge. The reset is in place — only
// the rows touched since the last window are cleared and the touched list's
// capacity is retained — so steady-state refresh costs zero allocations
// (BenchmarkRefreshWindow pins this).
func (d *Device) RefreshWindow() {
	for _, idx := range d.actTouched {
		d.actChunks[idx/actChunkRows][idx%actChunkRows] = 0
	}
	d.actTouched = d.actTouched[:0]
	for i := range d.openRow {
		d.openRow[i] = -1
	}
	d.refreshWindows++
}

// Sealer finishes a line stored by WriteUnsealed: Seal returns the image
// to store for line at addr. It must be a pure function of its receiver's
// fixed state, addr and line, so sealing a line later yields the image
// sealing it at write time would have. *core.Guard implements it.
type Sealer interface {
	Seal(addr uint64, line pte.Line) pte.Line
}

// lineOffsetMask selects the offset bits below a line address. It also
// caps the number of sealers owed lines at once; past the cap a line is
// sealed as it is written.
const lineOffsetMask = pte.LineBytes - 1

const (
	// pageLines is the number of 64-byte lines in a 4 KB page.
	pageLines = pte.PageSize / pte.LineBytes
	// pageChunk page records, and slabChunk line slots, are allocated
	// together.
	pageChunk = 64
	slabChunk = 512
)

// page records which lines of one 4 KB page are stored. at[i] is one plus
// the slab position of line i, 0 when it was never written; owed[i] is
// one plus the slot of the sealer that owes line i's seal, 0 when the
// line is sealed.
type page struct {
	at   [pageLines]uint32
	owed [pageLines]uint8
}

// find returns the record of the page holding addr, nil when no line of
// the page is stored, and the line's index in it.
func (d *Device) find(addr uint64) (*page, int) {
	i := int(addr/pte.LineBytes) % pageLines
	pn := addr >> pte.PageShift
	if d.last == nil || pn != d.lastPN {
		p := d.pages[pn]
		if p == nil {
			return nil, i
		}
		d.last, d.lastPN = p, pn
	}
	return d.last, i
}

// place returns the record and index of the line at addr, giving the line
// a zero slab slot if it has none.
func (d *Device) place(addr uint64) (*page, int) {
	p, i := d.find(addr)
	if p == nil {
		if len(d.spare) == 0 {
			d.spare = make([]page, pageChunk)
		}
		p, d.spare = &d.spare[0], d.spare[1:]
		pn := addr >> pte.PageShift
		d.pages[pn] = p
		d.last, d.lastPN = p, pn
	}
	if p.at[i] == 0 {
		if d.stored%slabChunk == 0 {
			d.slab = append(d.slab, new([slabChunk]pte.Line))
		}
		d.stored++
		p.at[i] = uint32(d.stored)
	}
	return p, i
}

// line returns the slab slot of line i of p, which must be stored.
func (d *Device) line(p *page, i int) *pte.Line {
	n := p.at[i] - 1
	return &d.slab[n/slabChunk][n%slabChunk]
}

// ReadLine returns the stored line image (zero if never written), sealing
// an unsealed line in place first.
func (d *Device) ReadLine(addr uint64) pte.Line {
	p, i := d.find(addr)
	if p == nil || p.at[i] == 0 {
		return pte.Line{}
	}
	if p.owed[i] != 0 {
		d.seal(addr&^lineOffsetMask, p, i)
	}
	return *d.line(p, i)
}

// Contains reports whether the line at addr has ever been written,
// distinguishing a stored all-zero line from untouched memory. It counts
// unsealed lines and seals nothing.
func (d *Device) Contains(addr uint64) bool {
	p, i := d.find(addr)
	return p != nil && p.at[i] != 0
}

// WriteLine stores a line image, dropping any seal owed on the line it
// replaces.
func (d *Device) WriteLine(addr uint64, line pte.Line) {
	p, i := d.place(addr)
	d.forgive(p, i)
	*d.line(p, i) = line
}

// WriteUnsealed stores line at addr with its seal owed by s: the first
// ReadLine, Lines visit or flip injection of the line replaces it with
// s.Seal(addr, line). Each line remembers its own sealer, so lines of
// controllers sharing the device, or written before a re-key, seal under
// the guard that wrote them. s is typically the writing *core.Guard,
// passed as is: a method value would allocate on every call.
func (d *Device) WriteUnsealed(addr uint64, line pte.Line, s Sealer) {
	p, i := d.place(addr)
	d.forgive(p, i)
	j := d.sealerSlot(s)
	if j < 0 {
		// Every slot is owed lines: seal now.
		*d.line(p, i) = s.Seal(addr&^lineOffsetMask, line)
		return
	}
	*d.line(p, i) = line
	p.owed[i] = uint8(j + 1)
	d.pending[j]++
	d.unsealed++
}

// sealerSlot returns s's slot, binding s to a free one if it owes no line
// yet, or -1 when every slot is taken.
func (d *Device) sealerSlot(s Sealer) int {
	free := -1
	for i, t := range d.sealers {
		if t == s {
			return i
		}
		if t == nil && free < 0 {
			free = i
		}
	}
	if free < 0 && len(d.sealers) < lineOffsetMask {
		d.sealers = append(d.sealers, nil)
		d.pending = append(d.pending, 0)
		free = len(d.sealers) - 1
	}
	if free >= 0 {
		d.sealers[free] = s
	}
	return free
}

// seal seals line i of p, at addr, in place with the sealer that owes it.
func (d *Device) seal(addr uint64, p *page, i int) {
	j := int(p.owed[i]) - 1
	l := d.line(p, i)
	*l = d.sealers[j].Seal(addr, *l)
	p.owed[i] = 0
	d.release(j)
}

// forgive drops the seal owed on line i of p, if any.
func (d *Device) forgive(p *page, i int) {
	if j := int(p.owed[i]) - 1; j >= 0 {
		p.owed[i] = 0
		d.release(j)
	}
}

// release records that slot i owes one line fewer, freeing the slot (and
// the reference to its sealer) when it owes none.
func (d *Device) release(i int) {
	d.unsealed--
	d.pending[i]--
	if d.pending[i] == 0 {
		d.sealers[i] = nil
	}
}

// Lines calls fn for every stored line in ascending address order,
// sealing every unsealed line first. The full-memory re-key sweep
// (§VII-B) uses it, so its CTB inserts and trace events follow the same
// order on every run. fn must not mutate the device.
func (d *Device) Lines(fn func(addr uint64, line pte.Line)) {
	pns := make([]uint64, 0, len(d.pages))
	for pn := range d.pages {
		pns = append(pns, pn)
	}
	slices.Sort(pns)
	if d.unsealed > 0 {
		for _, pn := range pns {
			p := d.pages[pn]
			for i, owed := range &p.owed {
				if owed != 0 {
					d.seal(pn<<pte.PageShift|uint64(i)*pte.LineBytes, p, i)
				}
			}
		}
	}
	for _, pn := range pns {
		p := d.pages[pn]
		for i, at := range &p.at {
			if at != 0 {
				fn(pn<<pte.PageShift|uint64(i)*pte.LineBytes, *d.line(p, i))
			}
		}
	}
}

// StoredLines returns the number of materialised lines.
func (d *Device) StoredLines() int { return d.stored }

// Stats reports device activity counters.
type Stats struct {
	Reads, Writes      uint64
	RowHits, RowMisses uint64
	// FlipsInjected is the total number of disturbance bit flips the
	// device absorbed; FlipCounts attributes them to (bank, row).
	FlipsInjected uint64
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	return Stats{
		Reads: d.reads, Writes: d.writes,
		RowHits: d.rowHits, RowMisses: d.rowMisses,
		FlipsInjected: d.flipsTotal,
	}
}

// SetObserver attaches the observability subsystem: row activations emit
// "dram/act" trace events and injected flips emit "fault/flip" events.
// A nil observer detaches (the zero-overhead default).
func (d *Device) SetObserver(o *obs.Observer) { d.o = o }

// PublishObs feeds the device counters into the metric registry under
// "dram." (the obs snapshot path; a nil registry is a no-op). Row misses
// are published as row activations: every miss activates a row.
func (d *Device) PublishObs(r *obs.Registry) {
	if r == nil {
		return
	}
	r.SetCounter("dram.reads", d.reads)
	r.SetCounter("dram.writes", d.writes)
	r.SetCounter("dram.row_hits", d.rowHits)
	r.SetCounter("dram.row_activations", d.rowMisses)
	r.SetCounter("dram.flips_injected", d.flipsTotal)
	r.SetGauge("dram.stored_lines", float64(d.stored))
}

// recordFlips attributes n > 0 injected flips to the (bank, row) of addr.
func (d *Device) recordFlips(addr uint64, n int) {
	loc := d.Locate(addr)
	bankIdx := loc.Channel*d.geo.BanksPerChannel + loc.Bank
	if d.flips == nil {
		d.flips = make(map[int32]uint64)
	}
	d.flips[d.rowIndex(bankIdx, loc.Row)] += uint64(n)
	d.flipsTotal += uint64(n)
	if d.o != nil {
		d.o.EmitArgs("fault", "flip", 0, map[string]uint64{
			"bank": uint64(bankIdx), "row": uint64(loc.Row), "flips": uint64(n),
		})
	}
}

// FlipCount is the number of injected flips one (bank, row) received.
type FlipCount struct {
	Bank, Row int
	Flips     uint64
}

// FlipCounts returns per-row flip attribution for every row that received
// at least one flip, sorted by (bank, row) for deterministic output. The
// row index already orders by (bank, row), so sorting the indices
// suffices.
func (d *Device) FlipCounts() []FlipCount {
	touched := make([]int32, 0, len(d.flips))
	for idx := range d.flips {
		touched = append(touched, idx)
	}
	sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })
	out := make([]FlipCount, 0, len(touched))
	for _, idx := range touched {
		out = append(out, FlipCount{
			Bank:  int(idx) / d.geo.RowsPerBank,
			Row:   int(idx) % d.geo.RowsPerBank,
			Flips: d.flips[idx],
		})
	}
	return out
}
