package tlb

import (
	"testing"

	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

func TestTLBHitMiss(t *testing.T) {
	tl, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tl.Lookup(5); ok {
		t.Error("cold lookup hit")
	}
	tl.Insert(5, 0x123)
	pfn, ok := tl.Lookup(5)
	if !ok || pfn != 0x123 {
		t.Errorf("lookup = %#x,%v", pfn, ok)
	}
	s := tl.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
	if got := s.MissRate(); got != 0.5 {
		t.Errorf("miss rate = %v, want 0.5", got)
	}
}

func TestTLBLRUEviction(t *testing.T) {
	tl, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(0); v < 4; v++ {
		tl.Insert(v, v*10)
	}
	tl.Lookup(0) // refresh vpn 0
	tl.Insert(4, 40)
	if _, ok := tl.Lookup(0); !ok {
		t.Error("recently used entry evicted")
	}
	if _, ok := tl.Lookup(1); ok {
		t.Error("LRU entry survived")
	}
}

func TestTLBFlush(t *testing.T) {
	tl, _ := New(8)
	tl.Insert(1, 2)
	tl.Flush()
	if _, ok := tl.Lookup(1); ok {
		t.Error("entry survived flush")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(-1); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := NewWalker(nil); err == nil {
		t.Error("nil reader accepted")
	}
}

// fakeMemory backs the walker with a simple 4-level page table for one
// virtual page.
type fakeMemory struct {
	lines map[uint64]pte.Line
	reads int
	fail  map[uint64]bool
}

func newFakeMemory() *fakeMemory {
	return &fakeMemory{lines: make(map[uint64]pte.Line), fail: make(map[uint64]bool)}
}

func (m *fakeMemory) setEntry(ea uint64, e pte.Entry) {
	lineAddr := ea &^ uint64(pte.LineBytes-1)
	line := m.lines[lineAddr]
	line[ea/8%pte.PTEsPerLine] = e
	m.lines[lineAddr] = line
}

func (m *fakeMemory) read(addr uint64) (pte.Line, bool) {
	m.reads++
	if m.fail[addr] {
		return pte.Line{}, false
	}
	return m.lines[addr], true
}

// buildMapping wires cr3 -> tables at 0x10000/0x20000/0x30000 -> leafPFN for
// the given vaddr.
func buildMapping(m *fakeMemory, cr3, vaddr, leafPFN uint64) {
	present := pte.Entry(0).SetBit(pte.BitPresent, true)
	bases := []uint64{cr3, 0x10000, 0x20000, 0x30000}
	for level := 0; level < Levels-1; level++ {
		m.setEntry(entryAddr(bases[level], vaddr, level), present.WithPFN(bases[level+1]>>pte.PageShift))
	}
	m.setEntry(entryAddr(bases[Levels-1], vaddr, Levels-1), present.WithPFN(leafPFN))
}

func TestWalkTranslates(t *testing.T) {
	m := newFakeMemory()
	const cr3, vaddr, leaf = 0x1000, 0x7f1234567000, 0xABCDE
	buildMapping(m, cr3, vaddr, leaf)
	w, err := NewWalker(m.read)
	if err != nil {
		t.Fatal(err)
	}
	res := w.Walk(cr3, vaddr)
	if res.Fault || res.CheckFailed {
		t.Fatalf("walk failed: %+v", res)
	}
	if res.PFN != leaf {
		t.Errorf("PFN = %#x, want %#x", res.PFN, leaf)
	}
	if res.MemAccesses != Levels {
		t.Errorf("cold walk accesses = %d, want %d", res.MemAccesses, Levels)
	}
}

func TestWalkUsesMMUCache(t *testing.T) {
	m := newFakeMemory()
	const cr3, vaddr, leaf = 0x1000, 0x7f1234567000, 0xABCDE
	buildMapping(m, cr3, vaddr, leaf)
	w, _ := NewWalker(m.read)
	w.Walk(cr3, vaddr)
	// Second walk of the same page: upper levels hit the MMU cache, only
	// the leaf goes to memory.
	res := w.Walk(cr3, vaddr)
	if res.MemAccesses != 1 {
		t.Errorf("warm walk accesses = %d, want 1", res.MemAccesses)
	}
	if w.Stats().MMUHits != Levels-1 {
		t.Errorf("MMU hits = %d, want %d", w.Stats().MMUHits, Levels-1)
	}
}

func TestWalkFaultsOnNonPresent(t *testing.T) {
	m := newFakeMemory()
	w, _ := NewWalker(m.read)
	res := w.Walk(0x1000, 0x5000)
	if !res.Fault {
		t.Error("walk of unmapped address did not fault")
	}
}

func TestWalkAbortsOnCheckFailure(t *testing.T) {
	m := newFakeMemory()
	const cr3, vaddr, leaf = 0x1000, 0x7f1234567000, 0xABCDE
	buildMapping(m, cr3, vaddr, leaf)
	// Fail the leaf PTE line read (integrity exception).
	leafEA := entryAddr(0x30000, vaddr, Levels-1) &^ uint64(pte.LineBytes-1)
	m.fail[leafEA] = true
	w, _ := NewWalker(m.read)
	res := w.Walk(cr3, vaddr)
	if !res.CheckFailed {
		t.Fatal("integrity failure not propagated")
	}
	if res.PFN != 0 {
		t.Error("translation leaked despite CheckFailed")
	}
	if w.Stats().CheckFailures != 1 {
		t.Error("CheckFailures counter wrong")
	}
}

func TestInvalidateEntryForcesRefetch(t *testing.T) {
	m := newFakeMemory()
	const cr3, vaddr, leaf = 0x1000, 0x7f1234567000, 0xABCDE
	buildMapping(m, cr3, vaddr, leaf)
	w, _ := NewWalker(m.read)
	w.Walk(cr3, vaddr)
	ea := entryAddr(cr3, vaddr, 0)
	w.InvalidateEntry(ea)
	res := w.Walk(cr3, vaddr)
	if res.MemAccesses != 2 { // PML4 refetch + leaf
		t.Errorf("post-invalidate accesses = %d, want 2", res.MemAccesses)
	}
}

func TestEntryAddrIndexing(t *testing.T) {
	// vaddr bit slices: 47:39, 38:30, 29:21, 20:12.
	vaddr := uint64(0x0000_FFFF_FFFF_F000) // bits 47:12 all set
	for level := 0; level < Levels; level++ {
		ea := entryAddr(0, vaddr, level)
		if ea != 511*8 {
			t.Errorf("level %d entry addr = %#x, want %#x", level, ea, 511*8)
		}
	}
	if got := entryAddr(0x2000, 0, 0); got != 0x2000 {
		t.Errorf("index 0 entry addr = %#x", got)
	}
}

func TestWalkHugePage(t *testing.T) {
	m := newFakeMemory()
	const cr3, vaddr = 0x1000, 0x7f40_0020_3000
	present := pte.Entry(0).SetBit(pte.BitPresent, true)
	// PML4 -> PDPT -> PDE(huge).
	m.setEntry(entryAddr(cr3, vaddr, 0), present.WithPFN(0x10000>>pte.PageShift))
	m.setEntry(entryAddr(0x10000, vaddr, 1), present.WithPFN(0x20000>>pte.PageShift))
	huge := present.SetBit(pte.BitHugePage, true).WithPFN(0x80000)
	m.setEntry(entryAddr(0x20000, vaddr, 2), huge)

	w, err := NewWalker(m.read)
	if err != nil {
		t.Fatal(err)
	}
	res := w.Walk(cr3, vaddr)
	if res.Fault || res.CheckFailed {
		t.Fatalf("huge walk failed: %+v", res)
	}
	want := uint64(0x80000) + vaddr>>pte.PageShift&0x1FF
	if res.PFN != want {
		t.Errorf("PFN = %#x, want %#x", res.PFN, want)
	}
	if res.MemAccesses != 3 {
		t.Errorf("huge walk accesses = %d, want 3 (one level shorter)", res.MemAccesses)
	}
}

func TestTLBSpannedEntry(t *testing.T) {
	tl, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	// A 2 MB entry: 512 pages from VPN 0x200 -> PFN 0x80000.
	tl.InsertSpan(0x200, 0x80000, 512)
	for _, off := range []uint64{0, 1, 511} {
		pfn, ok := tl.Lookup(0x200 + off)
		if !ok || pfn != 0x80000+off {
			t.Fatalf("Lookup(+%d) = %#x,%v", off, pfn, ok)
		}
	}
	if _, ok := tl.Lookup(0x200 + 512); ok {
		t.Error("lookup beyond the span hit")
	}
	if _, ok := tl.Lookup(0x1FF); ok {
		t.Error("lookup below the span hit")
	}
	// Zero span defaults to one page.
	tl.InsertSpan(0x900, 0x1, 0)
	if _, ok := tl.Lookup(0x900); !ok {
		t.Error("zero-span insert unusable")
	}
}

// refTLB is the scan-only TLB the hinted lookup replaced, kept as the
// reference model: every lookup returns the first matching entry.
type refTLB struct {
	entries      []tlbEntry
	clock        uint64
	hits, misses uint64
}

func (t *refTLB) lookupVM(vmid int, vpn uint64) (uint64, bool) {
	t.clock++
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.vmid == vmid && vpn-e.vpn < e.span {
			e.lastUse = t.clock
			t.hits++
			return e.pfn + (vpn - e.vpn), true
		}
	}
	t.misses++
	return 0, false
}

func (t *refTLB) insertSpanVM(vmid int, vpn, pfn, span uint64) {
	if span == 0 {
		span = 1
	}
	t.clock++
	victim := 0
	for i := range t.entries {
		if !t.entries[i].valid {
			victim = i
			break
		}
		if t.entries[i].lastUse < t.entries[victim].lastUse {
			victim = i
		}
	}
	t.entries[victim] = tlbEntry{vmid: vmid, vpn: vpn, pfn: pfn, span: span, valid: true, lastUse: t.clock}
}

func (t *refTLB) flush() {
	for i := range t.entries {
		t.entries[i] = tlbEntry{}
	}
}

func (t *refTLB) flushVM(vmid int) {
	for i := range t.entries {
		if t.entries[i].valid && t.entries[i].vmid == vmid {
			t.entries[i] = tlbEntry{}
		}
	}
}

// TestMatchesReferenceModel drives the TLB and the reference model with the
// same random LookupVM/InsertSpanVM/Flush/FlushVM sequence over three VMIDs.
// The vpns crowd a small range, spans run from 0 (one page) to 64, and
// inserts ignore what is already resident, so entries of one VMID overlap
// and the first-match order matters. Every (pfn, ok) and the final Stats
// must match. The disjoint case inserts only after a miss and only 4 KB
// pages, as the simulator does, so the hint stays in use throughout.
func TestMatchesReferenceModel(t *testing.T) {
	cases := []struct {
		name     string
		capacity int
		overlap  bool
	}{
		{"disjoint-64", 0, false},
		{"overlapping-64", 0, true},
		{"overlapping-8", 8, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tl, err := New(tc.capacity)
			if err != nil {
				t.Fatal(err)
			}
			ref := &refTLB{entries: make([]tlbEntry, len(tl.entries))}
			rng := stats.NewRNG(uint64(tc.capacity) + 1)
			// lookups and hinted count the lookups made with and without
			// overlapping entries present: each case must cover the
			// regimes it claims.
			lookups, hinted := 0, 0
			for i := 0; i < 200_000; i++ {
				vmid := rng.Intn(3)
				vpn := uint64(rng.Intn(1024))
				switch op := rng.Intn(1000); {
				case op == 0:
					tl.Flush()
					ref.flush()
				case op < 3:
					tl.FlushVM(vmid)
					ref.flushVM(vmid)
				case tc.overlap && op < 150:
					span := uint64(rng.Intn(65))
					pfn := rng.Uint64() >> 20
					tl.InsertSpanVM(vmid, vpn, pfn, span)
					ref.insertSpanVM(vmid, vpn, pfn, span)
				default:
					lookups++
					if !tl.overlap {
						hinted++
					}
					pfn, ok := tl.LookupVM(vmid, vpn)
					wantPFN, wantOK := ref.lookupVM(vmid, vpn)
					if pfn != wantPFN || ok != wantOK {
						t.Fatalf("step %d: LookupVM(%d, %#x) = %#x,%v, want %#x,%v", i, vmid, vpn, pfn, ok, wantPFN, wantOK)
					}
					if !ok && !tc.overlap {
						tl.InsertVM(vmid, vpn, vpn^0xABC)
						ref.insertSpanVM(vmid, vpn, vpn^0xABC, 1)
					}
				}
			}
			if got, want := tl.Stats(), (Stats{Hits: ref.hits, Misses: ref.misses}); got != want {
				t.Errorf("stats = %+v, want %+v", got, want)
			}
			if hinted == 0 || (hinted == lookups) == tc.overlap {
				t.Errorf("%d of %d lookups ran with no overlapping entries", hinted, lookups)
			}
		})
	}
}

// TestOverlapFlag: only an insert that shares a page with another live entry
// of its VMID disables the hint; replacing the overlapping entry itself, or
// another VMID's entry, does not, and Flush re-enables it.
func TestOverlapFlag(t *testing.T) {
	one, _ := New(1)
	one.InsertSpan(0x200, 0x80000, 512)
	one.Insert(0x300, 1) // evicts the span it lies in
	if one.overlap {
		t.Error("replacing the only entry set the overlap flag")
	}
	tl, _ := New(4)
	tl.InsertSpan(0x200, 0x80000, 512)
	tl.InsertVM(1, 0x300, 1)
	if tl.overlap {
		t.Error("another VMID's entry set the overlap flag")
	}
	tl.Insert(0x3FF, 2)
	if !tl.overlap {
		t.Fatal("a page inside a live span did not set the overlap flag")
	}
	tl.Flush()
	if tl.overlap {
		t.Error("Flush kept the overlap flag")
	}
}
