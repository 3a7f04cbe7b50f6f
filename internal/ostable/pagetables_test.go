package ostable

import (
	"testing"

	"ptguard/internal/pte"
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
