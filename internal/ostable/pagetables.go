package ostable

import (
	"errors"
	"fmt"
	"sort"

	"ptguard/internal/pte"
)

// tableLevels is the x86_64 page-table depth.
const tableLevels = 4

// linesPerTable is the number of cachelines in one 4 KB table page.
const linesPerTable = pte.PageSize / pte.LineBytes

// entriesPerTable is the number of 8-byte entries in one 4 KB table page.
const entriesPerTable = linesPerTable * pte.PTEsPerLine

// tablePage is the content of one 4 KB table page, line by line.
type tablePage [linesPerTable]pte.Line

// pageBase returns the base address of the 4 KB page containing addr.
func pageBase(addr uint64) uint64 { return addr &^ uint64(pte.PageSize-1) }

// lineIndex returns the index, within its page, of the line containing addr.
func lineIndex(addr uint64) int { return int(addr % pte.PageSize / pte.LineBytes) }

// PageTables builds and holds one process's 4-level x86_64 page tables in a
// shadow store of 64-byte lines, exactly as the trusted kernel would write
// them to memory (unused PFN bits and reserved bits zeroed, so PT-Guard's
// bit-pattern match succeeds on every table line).
//
// The shadow is stored per table page: one *[64]pte.Line per allocated page,
// keyed by the page's base address. An entry read or write is one map
// lookup plus an array index, Lines sorts page bases rather than line
// addresses, and RemapTablePage moves one pointer.
// Not safe for concurrent use.
type PageTables struct {
	alloc *FrameAllocator
	root  uint64 // physical address of the PML4 page

	// pages maps the base address of every allocated table page to its
	// 64 lines of content.
	pages map[uint64]*tablePage
	// tablePages records allocated table page frames per level for
	// profiling and teardown; tablePages[3] are leaf PT pages.
	tablePages [tableLevels][]uint64

	// parents maps each non-root table page's base address to the
	// physical address of the parent entry referencing it, enabling the
	// §IV-G row-remap recovery.
	parents map[uint64]uint64

	// leaf is the leaf table MapRange last filled, the one covering the
	// 2 MB region leafRegion (vaddr / HugePageSize), or nil. Once a leaf
	// table exists its parent entry stays present and never becomes a
	// huge page, and RemapTablePage moves the same page object, so the
	// memo stays valid until Free.
	leaf       *tablePage
	leafRegion uint64
}

// NewPageTables allocates an empty root table from alloc.
func NewPageTables(alloc *FrameAllocator) (*PageTables, error) {
	if alloc == nil {
		return nil, errors.New("ostable: nil allocator")
	}
	p := &PageTables{
		alloc:   alloc,
		pages:   make(map[uint64]*tablePage),
		parents: make(map[uint64]uint64),
	}
	rootPFN, err := p.allocTable(0)
	if err != nil {
		return nil, err
	}
	p.root = rootPFN << pte.PageShift
	return p, nil
}

// Root returns the physical address of the PML4 (the CR3 value).
func (p *PageTables) Root() uint64 { return p.root }

// LeafTablePages returns the physical page addresses of all leaf PT pages.
func (p *PageTables) LeafTablePages() []uint64 {
	out := make([]uint64, len(p.tablePages[tableLevels-1]))
	copy(out, p.tablePages[tableLevels-1])
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (p *PageTables) allocTable(level int) (uint64, error) {
	pfn, err := p.alloc.AllocFrame()
	if err != nil {
		return 0, err
	}
	base := pfn << pte.PageShift
	p.pages[base] = new(tablePage)
	p.tablePages[level] = append(p.tablePages[level], base)
	return pfn, nil
}

// entry returns the entry at ea, zero when ea is not in a table page.
func (p *PageTables) entry(ea uint64) pte.Entry {
	page := p.pages[pageBase(ea)]
	if page == nil {
		return 0
	}
	return page[lineIndex(ea)][ea/8%pte.PTEsPerLine]
}

// setEntry stores e at ea, which must lie in a table page: every caller
// reaches ea through an entry that points at one.
func (p *PageTables) setEntry(ea uint64, e pte.Entry) {
	p.pages[pageBase(ea)][lineIndex(ea)][ea/8%pte.PTEsPerLine] = e
}

func entryAddress(tableBase, vaddr uint64, level int) uint64 {
	shift := uint(12 + 9*(tableLevels-1-level))
	return tableBase + (vaddr>>shift&0x1FF)*8
}

// tableFlags are the flags the kernel sets on intermediate entries.
var tableFlags = pte.Entry(0).
	SetBit(pte.BitPresent, true).
	SetBit(pte.BitWritable, true).
	SetBit(pte.BitUserAccessible, true)

// Map installs vaddr -> pfn with the given leaf entry flags, creating
// intermediate tables on demand.
func (p *PageTables) Map(vaddr, pfn uint64, flags pte.Entry) error {
	return p.MapRange(vaddr, pfn, 1, flags)
}

// MapRange installs vaddr+i*4 KB -> pfn+i for each i < n with the given
// leaf entry flags, creating intermediate tables on demand. It walks the
// upper three levels once per leaf table it fills, and not at all while it
// keeps filling the leaf table its previous call left off in, and its
// result — allocations, table contents and the error — is that of n Map
// calls in order, stopping at the first failure.
func (p *PageTables) MapRange(vaddr, pfn uint64, n int, flags pte.Entry) error {
	if vaddr%pte.PageSize != 0 {
		return fmt.Errorf("ostable: unaligned vaddr %#x", vaddr)
	}
	if n < 1 {
		return fmt.Errorf("ostable: MapRange of %d pages", n)
	}
	leaf := flags.SetBit(pte.BitPresent, true)
	for n > 0 {
		if region := vaddr / HugePageSize; p.leaf == nil || region != p.leafRegion {
			base, err := p.walk(vaddr, tableLevels-1)
			if err != nil {
				return err
			}
			p.leaf, p.leafRegion = p.pages[base], region
		}
		page := p.leaf
		for i := vaddr >> pte.PageShift % entriesPerTable; i < entriesPerTable && n > 0; i++ {
			e := &page[i/pte.PTEsPerLine][i%pte.PTEsPerLine]
			if e.Present() {
				return fmt.Errorf("ostable: vaddr %#x already mapped", vaddr)
			}
			*e = leaf.WithPFN(pfn)
			vaddr += pte.PageSize
			pfn++
			n--
		}
	}
	return nil
}

// errFreed is the error of a map into tables that Free has released.
var errFreed = errors.New("ostable: page tables already freed")

// walk returns the base address of the table at level depth on vaddr's
// path, creating missing tables above it. A huge page above depth is an
// error, and so is a walk after Free, which released even the root.
func (p *PageTables) walk(vaddr uint64, depth int) (uint64, error) {
	if len(p.pages) == 0 {
		return 0, errFreed
	}
	base := p.root
	for level := 0; level < depth; level++ {
		ea := entryAddress(base, vaddr, level)
		e := p.entry(ea)
		if !e.Present() {
			newPFN, err := p.allocTable(level + 1)
			if err != nil {
				return 0, err
			}
			e = tableFlags.WithPFN(newPFN)
			p.setEntry(ea, e)
			p.parents[newPFN<<pte.PageShift] = ea
		} else if e.Bit(pte.BitHugePage) {
			return 0, fmt.Errorf("ostable: vaddr %#x already mapped by a huge page", vaddr)
		}
		base = e.PFN() << pte.PageShift
	}
	return base, nil
}

// HugePageSize is the 2 MB large-page size (PDE with the PS bit set).
const HugePageSize = 2 << 20

// hugePFNSpan is the number of 4 KB frames a huge page covers.
const hugePFNSpan = HugePageSize / pte.PageSize

// MapHuge installs a 2 MB mapping at the PD level (§III notes larger pages
// reduce page-table-walk frequency). vaddr must be 2 MB aligned and pfn
// must be the 2 MB-aligned base frame.
func (p *PageTables) MapHuge(vaddr, pfn uint64, flags pte.Entry) error {
	if vaddr%HugePageSize != 0 {
		return fmt.Errorf("ostable: unaligned huge vaddr %#x", vaddr)
	}
	if pfn%hugePFNSpan != 0 {
		return fmt.Errorf("ostable: unaligned huge pfn %#x", pfn)
	}
	base, err := p.walk(vaddr, tableLevels-2)
	if err != nil {
		return err
	}
	pdEA := entryAddress(base, vaddr, tableLevels-2)
	if p.entry(pdEA).Present() {
		return fmt.Errorf("ostable: vaddr %#x already mapped", vaddr)
	}
	leaf := flags.
		SetBit(pte.BitPresent, true).
		SetBit(pte.BitHugePage, true).
		WithPFN(pfn)
	p.setEntry(pdEA, leaf)
	return nil
}

// Translate performs a software walk, mirroring what the hardware walker
// should conclude. Huge mappings resolve to the covering 4 KB frame.
func (p *PageTables) Translate(vaddr uint64) (uint64, bool) {
	base := p.root
	for level := 0; level < tableLevels; level++ {
		e := p.entry(entryAddress(base, vaddr&^uint64(pte.PageSize-1), level))
		if !e.Present() {
			return 0, false
		}
		if level == tableLevels-2 && e.Bit(pte.BitHugePage) {
			return e.PFN() + vaddr>>pte.PageShift&(hugePFNSpan-1), true
		}
		if level == tableLevels-1 {
			return e.PFN(), true
		}
		base = e.PFN() << pte.PageShift
	}
	return 0, false
}

// Remap points an existing 4 KB mapping at a new frame (the kernel moving a
// page, e.g. during compaction or after a fault). It returns the physical
// address of the leaf PTE line that changed, so callers can write the
// updated line back through the memory controller.
func (p *PageTables) Remap(vaddr, newPFN uint64) (uint64, error) {
	ea, ok := p.LeafEntryAddr(vaddr)
	if !ok {
		return 0, fmt.Errorf("ostable: vaddr %#x not mapped", vaddr)
	}
	e := p.entry(ea)
	if !e.Present() {
		return 0, fmt.Errorf("ostable: vaddr %#x not present", vaddr)
	}
	p.setEntry(ea, e.WithPFN(newPFN))
	return ea &^ uint64(pte.LineBytes-1), nil
}

// LineAt returns the architectural content of the table cacheline at addr,
// ok=false when addr is not a table line of this process.
func (p *PageTables) LineAt(addr uint64) (pte.Line, bool) {
	page := p.pages[pageBase(addr)]
	if page == nil {
		return pte.Line{}, false
	}
	return page[lineIndex(addr)], true
}

// LeafEntryAddr returns the physical address of the leaf PTE mapping vaddr,
// ok=false when the walk hits a non-present entry. Attack experiments use
// it to aim bit-flips at a victim's translation.
func (p *PageTables) LeafEntryAddr(vaddr uint64) (uint64, bool) {
	base := p.root
	va := vaddr &^ uint64(pte.PageSize-1)
	for level := 0; level < tableLevels-1; level++ {
		e := p.entry(entryAddress(base, va, level))
		if !e.Present() {
			return 0, false
		}
		base = e.PFN() << pte.PageShift
	}
	return entryAddress(base, va, tableLevels-1), true
}

// Lines calls fn for every table cacheline (address, content), in address
// order. Used to flush the tables into simulated DRAM through the memory
// controller, which embeds the MACs; the deterministic order keeps DRAM
// row-buffer state reproducible across runs.
func (p *PageTables) Lines(fn func(addr uint64, line pte.Line)) {
	for _, base := range p.TablePages() {
		p.PageLines(base, fn)
	}
}

// TablePages returns the base address of every table page, in address
// order.
func (p *PageTables) TablePages() []uint64 {
	bases := make([]uint64, 0, len(p.pages))
	for base := range p.pages {
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	return bases
}

// LeafLines calls fn for every cacheline of every leaf PT page in address
// order: the PTE lines whose locality Fig. 8 profiles and Fig. 9 corrupts.
func (p *PageTables) LeafLines(fn func(addr uint64, line pte.Line)) {
	for _, base := range p.LeafTablePages() {
		p.PageLines(base, fn)
	}
}

// Free releases every table page back to the allocator, level by level in
// allocation order, and forgets MapRange's leaf memo, so a later Map,
// MapRange or MapHuge is an error rather than a write into a freed page.
// The data frames the tables map belong to the caller: RunPopulation lists
// them from the leaf entries before it frees the tables (process teardown).
func (p *PageTables) Free() {
	for level := range p.tablePages {
		for _, page := range p.tablePages[level] {
			// Errors cannot occur for frames we allocated.
			_ = p.alloc.FreeOrder(page>>pte.PageShift, 0)
		}
		p.tablePages[level] = nil
	}
	p.pages = make(map[uint64]*tablePage)
	p.leaf = nil
}

// appendLeafFrames appends the frame of every present 4 KB leaf entry to
// dst in virtual-address order, skipping huge mappings, and returns dst.
func (p *PageTables) appendLeafFrames(dst []uint64) []uint64 {
	return p.appendFrames(dst, p.root, 0)
}

func (p *PageTables) appendFrames(dst []uint64, base uint64, level int) []uint64 {
	page := p.pages[base]
	for _, line := range page {
		for _, e := range line {
			switch {
			case !e.Present():
			case level == tableLevels-1:
				dst = append(dst, e.PFN())
			case !e.Bit(pte.BitHugePage):
				dst = p.appendFrames(dst, e.PFN()<<pte.PageShift, level+1)
			}
		}
	}
	return dst
}

// PageLines calls fn for each of the 64 cachelines of the table page at
// base, in address order, and not at all when base is not a table page.
// Recovery uses it to re-flush a migrated page through the memory
// controller.
func (p *PageTables) PageLines(base uint64, fn func(addr uint64, line pte.Line)) {
	base = pageBase(base)
	page := p.pages[base]
	if page == nil {
		return
	}
	for i, line := range page {
		fn(base+uint64(i*pte.LineBytes), line)
	}
}

// ParentEntryAddr returns the physical address of the parent entry
// referencing the table page at base, ok=false for the root (which has no
// parent and cannot be remapped).
func (p *PageTables) ParentEntryAddr(base uint64) (uint64, bool) {
	ea, ok := p.parents[base&^uint64(pte.PageSize-1)]
	return ea, ok
}

// RemapTablePage implements the OS response of §IV-G: after PT-Guard
// reports bit-flips in a row, the kernel migrates the affected table page
// to a fresh frame and repoints the parent entry, taking the vulnerable row
// out of service. It returns the new page base address. The caller must
// re-flush the process's table lines to memory and shoot down stale TLB/MMU
// cache state.
func (p *PageTables) RemapTablePage(oldPage uint64) (uint64, error) {
	oldPage = pageBase(oldPage)
	parentEA, ok := p.parents[oldPage]
	if !ok {
		return 0, fmt.Errorf("ostable: %#x is not a remappable table page", oldPage)
	}
	newPFN, err := p.alloc.AllocFrame()
	if err != nil {
		return 0, err
	}
	newPage := newPFN << pte.PageShift
	// Move the page's content.
	p.pages[newPage] = p.pages[oldPage]
	delete(p.pages, oldPage)
	// Repoint the parent entry.
	parent := p.entry(parentEA)
	p.setEntry(parentEA, parent.WithPFN(newPFN))
	// Fix bookkeeping: the page's slot in tablePages, its own parent
	// record, and the parent records of its children (their parent EA
	// moved with the page).
	for level := range p.tablePages {
		for i, page := range p.tablePages[level] {
			if page == oldPage {
				p.tablePages[level][i] = newPage
			}
		}
	}
	delete(p.parents, oldPage)
	p.parents[newPage] = parentEA
	for child, ea := range p.parents {
		if ea >= oldPage && ea < oldPage+pte.PageSize {
			p.parents[child] = newPage + (ea - oldPage)
		}
	}
	// The poisoned frame stays allocated forever: the kernel quarantines
	// the vulnerable row rather than returning it to the pool.
	return newPage, nil
}
