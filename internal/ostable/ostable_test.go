package ostable

import (
	"testing"
	"testing/quick"

	"ptguard/internal/pte"
)

func testAlloc(tb testing.TB, frames uint64) *FrameAllocator {
	tb.Helper()
	a, err := NewFrameAllocator(0x100, frames)
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

func TestAllocatorBasic(t *testing.T) {
	a := testAlloc(t, 1<<12)
	f1, err := a.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := a.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f1 == f2 {
		t.Fatal("double allocation")
	}
	if a.UsedFrames() != 2 {
		t.Errorf("used = %d, want 2", a.UsedFrames())
	}
	if err := a.FreeOrder(f1, 0); err != nil {
		t.Fatal(err)
	}
	if a.UsedFrames() != 1 {
		t.Errorf("used after free = %d, want 1", a.UsedFrames())
	}
}

func TestAllocatorContiguity(t *testing.T) {
	a := testAlloc(t, 1<<12)
	base, err := a.AllocContiguous(13)
	if err != nil {
		t.Fatal(err)
	}
	// 13 frames from a 16-frame block; the 3-frame tail must be reusable.
	if a.UsedFrames() != 13 {
		t.Errorf("used = %d, want 13", a.UsedFrames())
	}
	if base%16 != 0 {
		t.Errorf("base %#x not block-aligned", base)
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	a := testAlloc(t, 4)
	for i := 0; i < 4; i++ {
		if _, err := a.AllocFrame(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.AllocFrame(); err != ErrOutOfMemory {
		t.Errorf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestAllocatorNoDoubleAllocationProperty(t *testing.T) {
	f := func(orders [32]uint8) bool {
		a := testAlloc(t, 1<<14)
		seen := make(map[uint64]bool)
		for _, ob := range orders {
			o := int(ob) % 5
			block, err := a.AllocOrder(o)
			if err != nil {
				continue
			}
			for f := block; f < block+1<<uint(o); f++ {
				if seen[f] {
					return false
				}
				seen[f] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAllocatorCoalescing(t *testing.T) {
	// Base 0 keeps the whole range order-10 aligned so full coalescing
	// can rebuild one maximal block.
	a, err := NewFrameAllocator(0, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([]uint64, 0, 1<<10)
	for {
		b, err := a.AllocFrame()
		if err != nil {
			break
		}
		blocks = append(blocks, b)
	}
	for _, b := range blocks {
		if err := a.FreeOrder(b, 0); err != nil {
			t.Fatal(err)
		}
	}
	// After freeing everything, a max-order allocation must succeed:
	// buddies coalesced all the way up.
	if _, err := a.AllocOrder(MaxOrder); err != nil {
		t.Errorf("max-order alloc after full free: %v", err)
	}
}

func TestAllocatorValidation(t *testing.T) {
	if _, err := NewFrameAllocator(0, 0); err == nil {
		t.Error("zero frames accepted")
	}
	a := testAlloc(t, 64)
	if _, err := a.AllocOrder(-1); err == nil {
		t.Error("negative order accepted")
	}
	if _, err := a.AllocOrder(MaxOrder + 1); err == nil {
		t.Error("oversized order accepted")
	}
	if err := a.FreeOrder(0x3, 1); err == nil {
		t.Error("misaligned free accepted")
	}
	if _, err := a.AllocContiguous(0); err == nil {
		t.Error("zero-length contiguous accepted")
	}
}

func TestPageTablesMapTranslate(t *testing.T) {
	a := testAlloc(t, 1<<14)
	pt, err := NewPageTables(a)
	if err != nil {
		t.Fatal(err)
	}
	const vaddr, pfn = 0x7f00_1234_5000, 0xABCD
	if err := pt.Map(vaddr, pfn, pte.Entry(0).SetBit(pte.BitWritable, true)); err != nil {
		t.Fatal(err)
	}
	got, ok := pt.Translate(vaddr)
	if !ok || got != pfn {
		t.Errorf("Translate = %#x,%v want %#x", got, ok, pfn)
	}
	if _, ok := pt.Translate(vaddr + pte.PageSize); ok {
		t.Error("unmapped page translated")
	}
	if err := pt.Map(vaddr, pfn, 0); err == nil {
		t.Error("double map accepted")
	}
	if err := pt.Map(vaddr+1, pfn, 0); err == nil {
		t.Error("unaligned map accepted")
	}
}

func TestPageTablesStructure(t *testing.T) {
	a := testAlloc(t, 1<<14)
	pt, _ := NewPageTables(a)
	// Two pages in the same leaf table, one far away.
	mustMap := func(v, p uint64) {
		t.Helper()
		if err := pt.Map(v, p, 0); err != nil {
			t.Fatal(err)
		}
	}
	mustMap(0x4000_0000_0000, 1)
	mustMap(0x4000_0000_1000, 2)
	mustMap(0x2000_0000_0000, 3)
	if n := len(pt.tablePages[0]); n != 1 {
		t.Errorf("PML4 pages = %d, want 1", n)
	}
	if n := len(pt.tablePages[3]); n != 2 {
		t.Errorf("leaf PT pages = %d, want 2", n)
	}
	if got := len(pt.LeafTablePages()); got != 2 {
		t.Errorf("LeafTablePages = %d, want 2", got)
	}
}

func TestPageTablesLinesMatchProtectionPattern(t *testing.T) {
	// Kernel-written table lines must have zero MAC and identifier
	// fields, or PT-Guard's write pattern match would skip them.
	a := testAlloc(t, 1<<14)
	pt, _ := NewPageTables(a)
	for v := uint64(0); v < 64; v++ {
		if err := pt.Map(0x5000_0000_0000+v*pte.PageSize, 0x100+v, 0); err != nil {
			t.Fatal(err)
		}
	}
	pt.Lines(func(addr uint64, line pte.Line) {
		for i, e := range line {
			if uint64(e)&(pte.MaskMAC|pte.MaskIdentifier) != 0 {
				t.Fatalf("table line %#x entry %d uses reserved bits: %#x", addr, i, uint64(e))
			}
		}
	})
}

func TestPageTablesFreeReleasesFrames(t *testing.T) {
	a := testAlloc(t, 1<<14)
	before := a.UsedFrames()
	pt, _ := NewPageTables(a)
	for v := uint64(0); v < 10; v++ {
		if err := pt.Map(0x6000_0000_0000+v<<30, 0x200+v, 0); err != nil {
			t.Fatal(err)
		}
	}
	pt.Free()
	// Leaf data frames are owned by the caller in this model; only table
	// pages are freed, so usage returns to the baseline.
	if a.UsedFrames() != before {
		t.Errorf("used = %d after Free, want %d", a.UsedFrames(), before)
	}
}

func TestSynthConfigValidation(t *testing.T) {
	a := testAlloc(t, 1<<16)
	bad := DefaultSynthConfig()
	bad.FragProb = 1.5
	if _, err := NewPopulation(bad, a); err == nil {
		t.Error("bad FragProb accepted")
	}
	if _, err := NewPopulation(DefaultSynthConfig(), nil); err == nil {
		t.Error("nil allocator accepted")
	}
}

func TestPopulationMatchesPaperLocality(t *testing.T) {
	// Fig. 8 ground truth: 64.13% zero, 23.73% contiguous; Insight 3:
	// >99% flag uniformity. The synthetic population must land close.
	a, err := NewFrameAllocator(0x1000, 1<<20) // 4 GB of frames
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSynthConfig()
	cfg.Seed = 42
	pop, err := NewPopulation(cfg, a)
	if err != nil {
		t.Fatal(err)
	}
	perProc, err := RunPopulation(pop, 40)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Summarize(perProc)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("zero=%.1f%% contig=%.1f%% noncontig=%.1f%% flagUniform=%.2f%% over %d PTEs",
		sum.ZeroMean, sum.ContigMean, sum.NonContMean, sum.FlagUniform, sum.TotalPTEs)
	if sum.ZeroMean < 54 || sum.ZeroMean > 74 {
		t.Errorf("zero PTE mean = %.1f%%, want ~64%%", sum.ZeroMean)
	}
	if sum.ContigMean < 16 || sum.ContigMean > 32 {
		t.Errorf("contiguous mean = %.1f%%, want ~24%%", sum.ContigMean)
	}
	if sum.FlagUniform < 99 {
		t.Errorf("flag uniformity = %.2f%%, want > 99%%", sum.FlagUniform)
	}
	if sum.Processes != 40 || len(sum.PerProcess) != 40 {
		t.Error("summary process count wrong")
	}
	// Fig. 8 orders processes by contiguous share.
	for i := 1; i < len(sum.PerProcess); i++ {
		if sum.PerProcess[i].ContiguousPct() > sum.PerProcess[i-1].ContiguousPct()+1e-9 {
			t.Fatal("PerProcess not sorted by contiguous percentage")
		}
	}
}

// TestRunPopulationReturnsEveryFrame runs populations on allocators too
// small to finish their processes, so that some process allocates a
// cluster MapRange cannot finish mapping, and checks that teardown returns
// every frame a process took: afterwards the allocator holds only the
// frames waiting in the scatter list.
func TestRunPopulationReturnsEveryFrame(t *testing.T) {
	newPop := func(frames uint64) (*Population, *FrameAllocator) {
		a := testAlloc(t, frames)
		cfg := DefaultSynthConfig()
		cfg.Seed = frames
		pop, err := NewPopulation(cfg, a)
		if err != nil {
			t.Fatal(err)
		}
		return pop, a
	}
	unfinished := 0
	for frames := uint64(40); frames < 3000; frames += 29 {
		probe, _ := newPop(frames)
		if _, err := probe.SynthesizeProcess(); err != nil {
			t.Fatal(err)
		}
		if len(probe.unmapped) > 0 {
			unfinished++
		}
		pop, a := newPop(frames)
		if _, err := RunPopulation(pop, 3); err != nil {
			t.Fatal(err)
		}
		if a.UsedFrames() != uint64(len(pop.scatter)) {
			t.Fatalf("%d frames: %d used after teardown, %d in the scatter list",
				frames, a.UsedFrames(), len(pop.scatter))
		}
	}
	if unfinished == 0 {
		t.Error("no allocator size left a cluster unfinished; the test misses that path")
	}
}

func TestProfileClassification(t *testing.T) {
	a := testAlloc(t, 1<<14)
	pt, _ := NewPageTables(a)
	flags := pte.Entry(0).SetBit(pte.BitWritable, true)
	// One leaf table: 3 contiguous, 1 isolated, rest zero.
	base := uint64(0x7000_0000_0000)
	for i, pfn := range []uint64{0x500, 0x501, 0x502, 0x900} {
		if err := pt.Map(base+uint64(i)*pte.PageSize, pfn, flags); err != nil {
			t.Fatal(err)
		}
	}
	s := ProfileProcess(pt)
	if s.Total != 512 {
		t.Errorf("total = %d, want 512", s.Total)
	}
	if s.Zero != 508 {
		t.Errorf("zero = %d, want 508", s.Zero)
	}
	if s.Contiguous != 3 {
		t.Errorf("contiguous = %d, want 3", s.Contiguous)
	}
	if s.NonContiguous != 1 {
		t.Errorf("non-contiguous = %d, want 1", s.NonContiguous)
	}
	if s.FlagUniformityPct() != 100 {
		t.Errorf("flag uniformity = %v, want 100", s.FlagUniformityPct())
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err == nil {
		t.Error("empty summary accepted")
	}
	if _, err := RunPopulation(nil, 0); err == nil {
		t.Error("zero population accepted")
	}
}

func TestMapHugeTranslate(t *testing.T) {
	a := testAlloc(t, 1<<14)
	pt, _ := NewPageTables(a)
	const vaddr = 0x7f40_0000_0000 // 2 MB aligned
	const basePFN = 0x40000        // 2 MB aligned frame
	if err := pt.MapHuge(vaddr, basePFN, pte.Entry(0).SetBit(pte.BitWritable, true)); err != nil {
		t.Fatal(err)
	}
	// Every 4 KB page inside the huge mapping translates, and nothing
	// beside it does.
	for off := uint64(0); off < HugePageSize; off += pte.PageSize {
		got, ok := pt.Translate(vaddr + off)
		want := basePFN + off/pte.PageSize
		if !ok || got != want {
			t.Fatalf("Translate(+%#x) = %#x,%v want %#x", off, got, ok, want)
		}
	}
	for _, v := range []uint64{vaddr - pte.PageSize, vaddr + HugePageSize} {
		if _, ok := pt.Translate(v); ok {
			t.Errorf("address %#x beside the huge page translated", v)
		}
	}
	// No leaf PT page is allocated for a huge mapping.
	if got := len(pt.tablePages[3]); got != 0 {
		t.Errorf("leaf PT pages = %d, want 0", got)
	}
}

func TestMapHugeValidation(t *testing.T) {
	a := testAlloc(t, 1<<14)
	pt, _ := NewPageTables(a)
	if err := pt.MapHuge(0x1000, 0x40000, 0); err == nil {
		t.Error("unaligned huge vaddr accepted")
	}
	if err := pt.MapHuge(0x40_0000_0000, 0x40001, 0); err == nil {
		t.Error("unaligned huge pfn accepted")
	}
	if err := pt.MapHuge(0x40_0000_0000, 0x40000, 0); err != nil {
		t.Fatal(err)
	}
	if err := pt.MapHuge(0x40_0000_0000, 0x40000, 0); err == nil {
		t.Error("double huge map accepted")
	}
	if err := pt.Map(0x40_0000_0000+pte.PageSize, 0x123, 0); err == nil {
		t.Error("4 KB map inside a huge mapping accepted")
	}
}
