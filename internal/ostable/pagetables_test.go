package ostable

import (
	"fmt"
	"reflect"
	"testing"

	"ptguard/internal/dram"
	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

// synthProcess builds one synthetic process over a fresh 4 GB allocator.
func synthProcess(tb testing.TB, seed uint64) *PageTables {
	tb.Helper()
	a, err := NewFrameAllocator(0x1000, 1<<20)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultSynthConfig()
	cfg.Seed = seed
	pop, err := NewPopulation(cfg, a)
	if err != nil {
		tb.Fatal(err)
	}
	pt, err := pop.SynthesizeProcess()
	if err != nil {
		tb.Fatal(err)
	}
	return pt
}

// tablePageSet returns the base address of every table page of pt.
func tablePageSet(pt *PageTables) map[uint64]bool {
	set := map[uint64]bool{}
	for _, level := range pt.tablePages {
		for _, base := range level {
			set[base] = true
		}
	}
	return set
}

func TestLinesVisitEveryTableLineOnceAscending(t *testing.T) {
	pt := synthProcess(t, 7)
	pages := tablePageSet(pt)
	if len(pages) < 10 {
		t.Fatalf("only %d table pages; the process is too small to test ordering", len(pages))
	}
	seen := map[uint64]int{}
	var prev uint64
	n := 0
	pt.Lines(func(addr uint64, line pte.Line) {
		if n > 0 && addr <= prev {
			t.Fatalf("line %#x visited after %#x", addr, prev)
		}
		prev = addr
		n++
		if addr%pte.LineBytes != 0 || !pages[pageBase(addr)] {
			t.Fatalf("visited %#x, not a line of a table page", addr)
		}
		seen[pageBase(addr)]++
		if got, ok := pt.LineAt(addr); !ok || got != line {
			t.Fatalf("LineAt(%#x) disagrees with Lines", addr)
		}
	})
	if n != len(pages)*linesPerTable {
		t.Errorf("visited %d lines, want %d", n, len(pages)*linesPerTable)
	}
	if bases := pt.TablePages(); len(bases) != len(pages) {
		t.Errorf("TablePages lists %d pages, want %d", len(bases), len(pages))
	}
	for base := range pages {
		if seen[base] != linesPerTable {
			t.Errorf("table page %#x: %d lines visited, want %d", base, seen[base], linesPerTable)
		}
	}

	leaves := pt.LeafTablePages()
	n = 0
	pt.LeafLines(func(addr uint64, _ pte.Line) {
		if want := leaves[n/linesPerTable] + uint64(n%linesPerTable*pte.LineBytes); addr != want {
			t.Fatalf("leaf line %d at %#x, want %#x", n, addr, want)
		}
		n++
	})
	if n != len(leaves)*linesPerTable {
		t.Errorf("LeafLines visited %d lines, want %d", n, len(leaves)*linesPerTable)
	}
}

func TestLineAtOutsideTablePages(t *testing.T) {
	pt := synthProcess(t, 8)
	frames := pt.appendLeafFrames(nil)
	if len(frames) == 0 {
		t.Fatal("process maps no data frames")
	}
	data := frames[0] << pte.PageShift
	for _, addr := range []uint64{data, data + pte.PageSize - pte.LineBytes, 0} {
		if _, ok := pt.LineAt(addr); ok {
			t.Errorf("LineAt(%#x) found a table line in a data frame", addr)
		}
	}
	if _, ok := pt.LineAt(pt.Root() + pte.PageSize - 1); !ok {
		t.Error("LineAt misses the last byte of the root table")
	}
	visited := false
	pt.PageLines(data, func(uint64, pte.Line) { visited = true })
	if visited {
		t.Error("PageLines visited a data frame")
	}
}

func TestRemapTablePageMovesLines(t *testing.T) {
	a := testAlloc(t, 1<<14)
	pt, err := NewPageTables(a)
	if err != nil {
		t.Fatal(err)
	}
	const vbase = 0x4000_0000_0000
	for i := uint64(0); i < 40; i++ {
		if err := pt.Map(vbase+i*pte.PageSize, 0x800+i, 0); err != nil {
			t.Fatal(err)
		}
	}
	old := pt.LeafTablePages()[0]
	var moved [linesPerTable]pte.Line
	pt.PageLines(old, func(addr uint64, line pte.Line) { moved[lineIndex(addr)] = line })

	if _, err := pt.RemapTablePage(pt.Root()); err == nil {
		t.Error("the root table was remapped")
	}
	fresh, err := pt.RemapTablePage(old + 3*pte.LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == old || fresh%pte.PageSize != 0 {
		t.Fatalf("remapped to %#x from %#x", fresh, old)
	}
	for i := 0; i < linesPerTable; i++ {
		off := uint64(i * pte.LineBytes)
		if _, ok := pt.LineAt(old + off); ok {
			t.Fatalf("old page line %d still present", i)
		}
		if got, ok := pt.LineAt(fresh + off); !ok || got != moved[i] {
			t.Fatalf("new page line %d = %v,%v, want the moved line", i, got, ok)
		}
	}
	if _, ok := pt.ParentEntryAddr(old); ok {
		t.Error("the old page still has a parent entry")
	}
	if _, ok := pt.ParentEntryAddr(fresh); !ok {
		t.Error("the new page has no parent entry")
	}
	if got := pt.LeafTablePages(); len(got) != 1 || got[0] != fresh {
		t.Errorf("LeafTablePages = %#x, want [%#x]", got, fresh)
	}
	pt.Lines(func(addr uint64, _ pte.Line) {
		if pageBase(addr) == old {
			t.Fatalf("Lines visited the old page at %#x", addr)
		}
	})
	for i := uint64(0); i < 40; i++ {
		if pfn, ok := pt.Translate(vbase + i*pte.PageSize); !ok || pfn != 0x800+i {
			t.Fatalf("page %d translates to %#x,%v after the remap", i, pfn, ok)
		}
		if ea, ok := pt.LeafEntryAddr(vbase + i*pte.PageSize); !ok || pageBase(ea) != fresh {
			t.Fatalf("page %d leaf entry at %#x, want in %#x", i, ea, fresh)
		}
	}
}

// refMap is the per-page Map that MapRange replaced, kept as the reference
// model: a full four-level walk, creating tables on demand, for every page.
func refMap(p *PageTables, vaddr, pfn uint64, flags pte.Entry) error {
	if vaddr%pte.PageSize != 0 {
		return fmt.Errorf("ostable: unaligned vaddr %#x", vaddr)
	}
	if len(p.pages) == 0 {
		return errFreed
	}
	base := p.root
	for level := 0; level < tableLevels-1; level++ {
		ea := entryAddress(base, vaddr, level)
		e := p.entry(ea)
		if !e.Present() {
			newPFN, err := p.allocTable(level + 1)
			if err != nil {
				return err
			}
			e = tableFlags.WithPFN(newPFN)
			p.setEntry(ea, e)
			p.parents[newPFN<<pte.PageShift] = ea
		} else if e.Bit(pte.BitHugePage) {
			return fmt.Errorf("ostable: vaddr %#x already mapped by a huge page", vaddr)
		}
		base = e.PFN() << pte.PageShift
	}
	leafEA := entryAddress(base, vaddr, tableLevels-1)
	if p.entry(leafEA).Present() {
		return fmt.Errorf("ostable: vaddr %#x already mapped", vaddr)
	}
	p.setEntry(leafEA, flags.SetBit(pte.BitPresent, true).WithPFN(pfn))
	return nil
}

// mapOp is the kind of one mapStep.
type mapOp uint8

const (
	opMapRange  mapOp = iota // map vaddr+i*4 KB -> pfn+i for i < n
	opMapHuge                // MapHuge(vaddr, pfn)
	opRemapLeaf              // RemapTablePage of the leaf table covering vaddr
	opFree                   // Free
)

// mapStep is one operation of a mapRangeCase.
type mapStep struct {
	op         mapOp
	vaddr, pfn uint64
	n          int
}

// mapRangeCase is a sequence of MapRange calls, with other table
// operations between them, and the state it starts from: a fresh allocator
// of frames frames, the 2 MB pages huge and then the 4 KB pages pre mapped
// first. A set-up map may fail (an overlap or an exhausted allocator); its
// error is ignored because both runs of a case build the same set-up and
// fail alike.
type mapRangeCase struct {
	steps     []mapStep
	flags     pte.Entry
	frames    uint64
	huge, pre []uint64
}

// run builds the case's starting state and applies its steps, mapping
// each range with one MapRange call, or with n refMap calls when ref is
// set. It returns the tables and the error of each step.
func (c mapRangeCase) run(tb testing.TB, ref bool) (*PageTables, []string) {
	tb.Helper()
	a, err := NewFrameAllocator(0x100, c.frames)
	if err != nil {
		tb.Fatal(err)
	}
	pt, err := NewPageTables(a)
	if err != nil {
		tb.Fatal(err)
	}
	for _, v := range c.huge {
		_ = pt.MapHuge(v, 0x40000, c.flags)
	}
	for i, v := range c.pre {
		_ = refMap(pt, v, 0x9000+uint64(i), c.flags)
	}
	errs := make([]string, len(c.steps))
	for i, s := range c.steps {
		var err error
		switch s.op {
		case opMapRange:
			if !ref {
				err = pt.MapRange(s.vaddr, s.pfn, s.n, c.flags)
				break
			}
			for k := 0; k < s.n && err == nil; k++ {
				err = refMap(pt, s.vaddr+uint64(k)*pte.PageSize, s.pfn+uint64(k), c.flags)
			}
		case opMapHuge:
			err = pt.MapHuge(s.vaddr, s.pfn, c.flags)
		case opRemapLeaf:
			if ea, ok := pt.LeafEntryAddr(s.vaddr); ok {
				_, err = pt.RemapTablePage(ea)
			}
		case opFree:
			pt.Free()
		}
		errs[i] = fmt.Sprint(err)
	}
	return pt, errs
}

// checkMapRange fails tb unless the steps of c, run with MapRange, fail
// exactly where and as they do with the per-page reference walk, and end
// in exactly its state: the same table lines, table pages per level in
// allocation order, parent entries and allocator, which therefore hands
// out the same next frame.
func checkMapRange(tb testing.TB, c mapRangeCase) {
	tb.Helper()
	got, gotErrs := c.run(tb, false)
	want, wantErrs := c.run(tb, true)
	if !reflect.DeepEqual(gotErrs, wantErrs) {
		tb.Fatalf("%+v: errors %q, reference %q", c, gotErrs, wantErrs)
	}
	if len(got.pages) != len(want.pages) {
		tb.Fatalf("%+v: %d table pages, reference %d", c, len(got.pages), len(want.pages))
	}
	for base, page := range want.pages {
		if g := got.pages[base]; g == nil || *g != *page {
			tb.Fatalf("%+v: table page %#x differs from the reference", c, base)
		}
	}
	if !reflect.DeepEqual(got.tablePages, want.tablePages) {
		tb.Fatalf("%+v: table pages %#x, reference %#x", c, got.tablePages, want.tablePages)
	}
	if !reflect.DeepEqual(got.parents, want.parents) {
		tb.Fatalf("%+v: parent entries differ from the reference", c)
	}
	if !reflect.DeepEqual(got.alloc, want.alloc) {
		tb.Fatalf("%+v: allocator state differs from the reference", c)
	}
	gf, gerr := got.alloc.AllocFrame()
	wf, werr := want.alloc.AllocFrame()
	if gf != wf || gerr != werr {
		tb.Fatalf("%+v: next frame %#x,%v, reference %#x,%v", c, gf, gerr, wf, werr)
	}
}

// randomMapRangeCase draws a range that often crosses a 2 MB, 1 GB or
// 512 GB table boundary, with pre-mapped pages in and around it, at times
// a huge page in the way, and at times an allocator too small to finish.
// Half the cases go on with up to three more steps near the first range:
// a range that continues the previous one, starts in a leaf table the
// first filled or lands elsewhere, a move of a leaf table the first
// filled, a huge page beside it, or Free.
func randomMapRangeCase(r *stats.RNG) mapRangeCase {
	first := mapStep{op: opMapRange, n: 1 + r.Intn(1100), pfn: r.Uint64() >> 24}
	c := mapRangeCase{flags: pte.Entry(r.Uint64()), frames: 1 << 12}
	if r.Bernoulli(0.2) {
		first.vaddr = r.Uint64() &^ (pte.PageSize - 1)
	} else {
		boundary := uint64(HugePageSize) << (9 * uint(r.Intn(3)))
		first.vaddr = boundary*uint64(1+r.Intn(1000)) - uint64(r.Intn(first.n+8))*pte.PageSize
	}
	if r.Bernoulli(0.2) {
		c.frames = uint64(1 + r.Intn(12))
	}
	if r.Bernoulli(0.15) {
		c.huge = append(c.huge, (first.vaddr+uint64(r.Intn(first.n))*pte.PageSize)&^(HugePageSize-1))
	}
	if r.Bernoulli(0.3) {
		for k := 1 + r.Intn(4); k > 0; k-- {
			c.pre = append(c.pre, first.vaddr+uint64(r.Intn(first.n+8))*pte.PageSize-4*pte.PageSize)
		}
	}
	c.steps = []mapStep{first}
	if r.Bernoulli(0.5) {
		end := first.vaddr + uint64(first.n)*pte.PageSize
		for k := 1 + r.Intn(3); k > 0; k-- {
			s := mapStep{op: opMapRange, n: 1 + r.Intn(600), pfn: 0x20000 + r.Uint64()>>40}
			near := first.vaddr + uint64(r.Intn(first.n))*pte.PageSize
			switch r.Intn(8) {
			case 0, 1:
				s.vaddr = end
			case 2, 3:
				s.vaddr = near&^(HugePageSize-1) + uint64(r.Intn(entriesPerTable))*pte.PageSize
			case 4:
				s.vaddr = near + uint64(HugePageSize)<<(9*uint(r.Intn(2)))
			case 5:
				s = mapStep{op: opRemapLeaf, vaddr: near}
			case 6:
				s = mapStep{op: opMapHuge, vaddr: near&^(HugePageSize-1) + HugePageSize, pfn: 0x80000}
			case 7:
				s = mapStep{op: opFree}
			}
			end = s.vaddr + uint64(s.n)*pte.PageSize
			c.steps = append(c.steps, s)
		}
	}
	return c
}

func TestMapRangeMatchesMap(t *testing.T) {
	r := stats.NewRNG(19)
	for i := 0; i < 1500; i++ {
		checkMapRange(t, randomMapRangeCase(r))
	}
}

// TestMapRangeMemoAcrossCalls checks the sequences in which MapRange's
// leaf memo from an earlier call decides the next one: mapping back into
// a leaf table after filling another, into a memoised leaf table that
// RemapTablePage moved, beside and across a huge page, and after Free.
func TestMapRangeMemoAcrossCalls(t *testing.T) {
	const a = 0x4000_0000_0000 // a 2 MB region's base
	const b = a + 7*HugePageSize
	rng := func(vaddr uint64, n int) mapStep {
		return mapStep{op: opMapRange, vaddr: vaddr, pfn: 0x800 + vaddr>>pte.PageShift%0x10000, n: n}
	}
	cases := map[string][]mapStep{
		"back into the first leaf": {
			rng(a, 10), rng(b, 3), rng(a+10*pte.PageSize, 5), rng(a+2*pte.PageSize, 1),
		},
		"across two leaves and back": {
			rng(a+500*pte.PageSize, 30), rng(a+100*pte.PageSize, 2), rng(a+530*pte.PageSize, 4),
		},
		"after the memoised leaf moved": {
			rng(a, 10), {op: opRemapLeaf, vaddr: a}, rng(a+10*pte.PageSize, 5),
			rng(b, 1), rng(a+20*pte.PageSize, 3), {op: opRemapLeaf, vaddr: a}, rng(a+23*pte.PageSize, 600),
		},
		"beside a huge page": {
			rng(a+500*pte.PageSize, 10), {op: opMapHuge, vaddr: a + HugePageSize, pfn: 0x40000},
			rng(a+510*pte.PageSize, 4), {op: opMapHuge, vaddr: a, pfn: 0x40000}, rng(a+2*pte.PageSize, 1),
		},
		"after Free": {
			rng(a, 10), {op: opFree}, rng(a+10*pte.PageSize, 5), rng(b, 1),
		},
	}
	for name, steps := range cases {
		t.Run(name, func(t *testing.T) {
			checkMapRange(t, mapRangeCase{steps: steps, flags: pte.Entry(0).SetBit(pte.BitWritable, true), frames: 1 << 12})
		})
	}
}

func TestMapRangeRejectsEmptyRange(t *testing.T) {
	for _, n := range []int{0, -1} {
		pt, err := NewPageTables(testAlloc(t, 1<<10))
		if err != nil {
			t.Fatal(err)
		}
		if err := pt.MapRange(0x4000_0000_0000, 0x800, n, 0); err == nil {
			t.Errorf("MapRange of %d pages accepted", n)
		}
		if len(pt.pages) != 1 || *pt.pages[pt.root] != (tablePage{}) {
			t.Errorf("MapRange of %d pages changed the tables", n)
		}
	}
}

// FuzzMapRange checks MapRange against the per-page reference walk for an
// arbitrary base address, length, set of pre-mapped pages (one per set bit
// of pre, spread over and just past the range), optional huge page in the
// way and allocator size, followed by up to eight more steps read from
// more, three bytes each: an operation and a length from the first byte,
// and a signed page offset from the first range's base from the next two.
func FuzzMapRange(f *testing.F) {
	f.Add(uint64(0x4000_001F_E000), uint16(40), uint64(0), false, uint16(4096), []byte(nil))
	f.Add(uint64(0x7FFF_FFF0_0000), uint16(1099), uint64(1<<63|1<<5), true, uint16(7), []byte(nil))
	f.Add(uint64(0x1234_5678_9000), uint16(513), uint64(0xF0F0), false, uint16(3), []byte(nil))
	// Elsewhere, back into the memoised leaf, move the first leaf, go on.
	f.Add(uint64(0x4000_001F_E000), uint16(40), uint64(0), false, uint16(4096),
		[]byte{0x08, 0x10, 0x00, 0x00, 0x00, 0x29, 0x02, 0x00, 0x00, 0x00, 0x00, 0x2A})
	// Move the memoised leaf and go on, a huge page beside it, a range
	// into it, then Free and map again.
	f.Add(uint64(0x4000_0000_0000), uint16(10), uint64(0), false, uint16(4096),
		[]byte{0x02, 0x00, 0x00, 0x18, 0x00, 0x0B, 0x01, 0x02, 0x00, 0x00, 0x01, 0xF8,
			0x10, 0x01, 0xFC, 0x03, 0x00, 0x00, 0x00, 0x00, 0x80})
	f.Fuzz(func(t *testing.T, vaddr uint64, n uint16, pre uint64, huge bool, frames uint16, more []byte) {
		first := mapStep{op: opMapRange, vaddr: vaddr &^ (pte.PageSize - 1), pfn: 0x800, n: 1 + int(n%1100)}
		c := mapRangeCase{
			steps:  []mapStep{first},
			flags:  pte.Entry(0).SetBit(pte.BitWritable, true),
			frames: 1 + uint64(frames%4096),
		}
		if huge {
			c.huge = []uint64{(first.vaddr + uint64(first.n/2)*pte.PageSize) &^ (HugePageSize - 1)}
		}
		for b := uint64(0); b < 64; b++ {
			if pre>>b&1 != 0 {
				c.pre = append(c.pre, first.vaddr+b*uint64(first.n+4)/64*pte.PageSize)
			}
		}
		for k := 0; k+3 <= len(more) && len(c.steps) <= 8; k += 3 {
			offset := int64(int16(uint16(more[k+1])<<8 | uint16(more[k+2])))
			s := mapStep{
				op:    mapOp(more[k] % 8),
				vaddr: first.vaddr + uint64(offset)*pte.PageSize,
				pfn:   0x20000 + uint64(k)*0x100,
				n:     1 + int(more[k]>>3)*35,
			}
			switch s.op {
			case opMapHuge:
				s.vaddr &^= HugePageSize - 1
				s.pfn = 0x80000
			case opRemapLeaf, opFree:
			default:
				s.op = opMapRange
			}
			c.steps = append(c.steps, s)
		}
		checkMapRange(t, c)
	})
}

// BenchmarkSynthesizeProcess times building one synthetic process's page
// tables on a fresh allocator (the population build behind Fig. 8/9).
func BenchmarkSynthesizeProcess(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a, err := NewFrameAllocator(0x1000, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		cfg := DefaultSynthConfig()
		cfg.Seed = 1
		pop, err := NewPopulation(cfg, a)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := pop.SynthesizeProcess(); err != nil {
			b.Fatal(err)
		}
	}
}

// poolLineSink keeps BenchmarkSynthesizePool's reads live.
var poolLineSink PoolLine

// BenchmarkSynthesizePool times the Fig. 9 line pool as the correction
// experiment builds it at seed 1: the Fig. 9 allocator over the default
// DRAM geometry, the six processes, and the first 500 lines of the
// shuffled pool read out.
func BenchmarkSynthesizePool(b *testing.B) {
	b.ReportAllocs()
	frames := dram.DefaultGeometry().Capacity()/pte.PageSize - 4096
	for i := 0; i < b.N; i++ {
		a, err := NewFrameAllocator(4096, frames)
		if err != nil {
			b.Fatal(err)
		}
		pool, err := SynthesizePool(a, 1)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 500; j++ {
			poolLineSink = pool.Line(j)
		}
	}
}
