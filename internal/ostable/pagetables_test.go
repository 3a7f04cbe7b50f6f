package ostable

import (
	"fmt"
	"reflect"
	"testing"

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
	if len(pt.owned) == 0 {
		t.Fatal("process owns no data frames")
	}
	data := pt.owned[0] << pte.PageShift
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
	p.mapped++
	return nil
}

// mapRangeCase is one MapRange call and the state it runs on: a fresh
// allocator of frames frames, the 2 MB pages huge and then the 4 KB pages
// pre mapped first, then vaddr+i*4 KB -> pfn+i for i < n. A set-up map
// may fail (an overlap or an exhausted allocator); its error is ignored
// because both runs of a case build the same set-up and fail alike.
type mapRangeCase struct {
	vaddr, pfn uint64
	n          int
	flags      pte.Entry
	frames     uint64
	huge, pre  []uint64
}

// run builds the case's starting state and maps its range with MapRange,
// or with n refMap calls when ref is set.
func (c mapRangeCase) run(tb testing.TB, ref bool) (*PageTables, error) {
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
	if !ref {
		return pt, pt.MapRange(c.vaddr, c.pfn, c.n, c.flags)
	}
	for i := 0; i < c.n; i++ {
		if err := refMap(pt, c.vaddr+uint64(i)*pte.PageSize, c.pfn+uint64(i), c.flags); err != nil {
			return pt, err
		}
	}
	return pt, nil
}

// checkMapRange fails tb unless MapRange leaves exactly the state and
// error of the per-page reference walk: the same table lines, table pages
// per level in allocation order, parent entries, mapped-page count and
// allocator, which therefore hands out the same next frame.
func checkMapRange(tb testing.TB, c mapRangeCase) {
	tb.Helper()
	got, gotErr := c.run(tb, false)
	want, wantErr := c.run(tb, true)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		tb.Fatalf("%+v: error %v, reference %v", c, gotErr, wantErr)
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
	if got.MappedPages() != want.MappedPages() {
		tb.Fatalf("%+v: %d mapped pages, reference %d", c, got.MappedPages(), want.MappedPages())
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
func randomMapRangeCase(r *stats.RNG) mapRangeCase {
	c := mapRangeCase{
		n:      1 + r.Intn(1100),
		pfn:    r.Uint64() >> 24,
		flags:  pte.Entry(r.Uint64()),
		frames: 1 << 12,
	}
	if r.Bernoulli(0.2) {
		c.vaddr = r.Uint64() &^ (pte.PageSize - 1)
	} else {
		boundary := uint64(HugePageSize) << (9 * uint(r.Intn(3)))
		c.vaddr = boundary*uint64(1+r.Intn(1000)) - uint64(r.Intn(c.n+8))*pte.PageSize
	}
	if r.Bernoulli(0.2) {
		c.frames = uint64(1 + r.Intn(12))
	}
	if r.Bernoulli(0.15) {
		c.huge = append(c.huge, (c.vaddr+uint64(r.Intn(c.n))*pte.PageSize)&^(HugePageSize-1))
	}
	if r.Bernoulli(0.3) {
		for k := 1 + r.Intn(4); k > 0; k-- {
			c.pre = append(c.pre, c.vaddr+uint64(r.Intn(c.n+8))*pte.PageSize-4*pte.PageSize)
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

func TestMapRangeRejectsEmptyRange(t *testing.T) {
	for _, n := range []int{0, -1} {
		pt, err := NewPageTables(testAlloc(t, 1<<10))
		if err != nil {
			t.Fatal(err)
		}
		if err := pt.MapRange(0x4000_0000_0000, 0x800, n, 0); err == nil {
			t.Errorf("MapRange of %d pages accepted", n)
		}
		if pt.MappedPages() != 0 || len(pt.pages) != 1 {
			t.Errorf("MapRange of %d pages changed the tables", n)
		}
	}
}

// FuzzMapRange checks MapRange against the per-page reference walk for an
// arbitrary base address, length, set of pre-mapped pages (one per set bit
// of pre, spread over and just past the range), optional huge page in the
// way and allocator size.
func FuzzMapRange(f *testing.F) {
	f.Add(uint64(0x4000_001F_E000), uint16(40), uint64(0), false, uint16(4096))
	f.Add(uint64(0x7FFF_FFF0_0000), uint16(1099), uint64(1<<63|1<<5), true, uint16(7))
	f.Add(uint64(0x1234_5678_9000), uint16(513), uint64(0xF0F0), false, uint16(3))
	f.Fuzz(func(t *testing.T, vaddr uint64, n uint16, pre uint64, huge bool, frames uint16) {
		c := mapRangeCase{
			vaddr:  vaddr &^ (pte.PageSize - 1),
			pfn:    0x800,
			n:      1 + int(n%1100),
			flags:  pte.Entry(0).SetBit(pte.BitWritable, true),
			frames: 1 + uint64(frames%4096),
		}
		if huge {
			c.huge = []uint64{(c.vaddr + uint64(c.n/2)*pte.PageSize) &^ (HugePageSize - 1)}
		}
		for b := uint64(0); b < 64; b++ {
			if pre>>b&1 != 0 {
				c.pre = append(c.pre, c.vaddr+b*uint64(c.n+4)/64*pte.PageSize)
			}
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
