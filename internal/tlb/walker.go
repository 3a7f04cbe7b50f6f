package tlb

import (
	"errors"

	"ptguard/internal/cache"
	"ptguard/internal/obs"
	"ptguard/internal/pte"
)

// Levels is the x86_64 page-table depth: PML4, PDPT, PD, PT.
const Levels = 4

// LineReader fetches a PTE cacheline from the memory system (through the
// cache hierarchy and the PT-Guard-instrumented memory controller). ok is
// false when the integrity check failed and the line was not forwarded.
type LineReader func(physAddr uint64) (line pte.Line, ok bool)

// Walker performs hardware page-table walks. Entries of the three upper
// levels are cached in the MMU cache (8 KB, 4-way; Table III) so repeated
// walks skip their memory accesses.
// Not safe for concurrent use.
type Walker struct {
	mmu    *cache.Cache
	values map[uint64]pte.Entry // entry values backing MMU-cache presence
	read   LineReader

	walks, memAccesses, mmuHits uint64
	checkFailures               uint64
}

// NewWalker builds a walker over the given line reader.
func NewWalker(read LineReader) (*Walker, error) {
	if read == nil {
		return nil, errors.New("tlb: nil line reader")
	}
	mmu, err := cache.New(cache.MMUConfig)
	if err != nil {
		return nil, err
	}
	return &Walker{mmu: mmu, values: make(map[uint64]pte.Entry), read: read}, nil
}

// WalkResult describes one page-table walk.
type WalkResult struct {
	// PFN is the translated frame number (valid when !Fault && !CheckFailed).
	PFN uint64
	// Entry is the leaf PTE.
	Entry pte.Entry
	// MemAccesses counts PTE-line reads issued past the MMU cache.
	MemAccesses int
	// Fault reports a non-present entry at some level.
	Fault bool
	// CheckFailed reports a PT-Guard integrity exception: the walk
	// aborted and no translation may be consumed (§IV-F).
	CheckFailed bool
}

// entryAddr returns the physical address of the level's entry for vaddr.
// level 0 is the PML4, level 3 the leaf page table.
func entryAddr(tableBase, vaddr uint64, level int) uint64 {
	shift := uint(12 + 9*(Levels-1-level))
	index := vaddr >> shift & 0x1FF
	return tableBase + index*8
}

// Walk translates vaddr starting from the root table at cr3.
func (w *Walker) Walk(cr3, vaddr uint64) WalkResult {
	w.walks++
	res := WalkResult{}
	base := cr3
	for level := 0; level < Levels; level++ {
		ea := entryAddr(base, vaddr, level)
		var entry pte.Entry
		// Upper levels consult the MMU cache; the leaf level always
		// goes to the memory system (it is what the TLB caches).
		if level < Levels-1 {
			acc := w.mmu.Access(ea, false)
			if acc.EvValid {
				// Keep the value map in lockstep with the cache:
				// without this trim it grows one entry per distinct
				// table line ever walked, a real leak on
				// days-of-uptime fleet runs.
				dropLineValues(w.values, acc.Evicted)
			}
			if v, ok := w.values[ea]; acc.Hit && ok {
				w.mmuHits++
				entry = v
			} else {
				// A hit without a value is presence gone stale after
				// an invalidation; either way the entry comes from
				// memory, and a fresh install records its value.
				e, ok := w.fetchEntry(ea, &res)
				if !ok {
					return res
				}
				entry = e
				if !acc.Hit {
					w.values[ea] = entry
				}
			}
		} else {
			e, ok := w.fetchEntry(ea, &res)
			if !ok {
				return res
			}
			entry = e
		}
		if !entry.Present() {
			res.Fault = true
			return res
		}
		if level == Levels-2 && entry.Bit(pte.BitHugePage) {
			// 2 MB page: the PDE is the leaf; the walk is one level
			// shorter (why large pages reduce walk cost, §III).
			res.Entry = entry
			res.PFN = entry.PFN() + vaddr>>pte.PageShift&0x1FF
			return res
		}
		if level == Levels-1 {
			res.Entry = entry
			res.PFN = entry.PFN()
			return res
		}
		base = entry.PFN() << pte.PageShift
	}
	res.Fault = true
	return res
}

// fetchEntry reads the PTE line containing ea through the memory system and
// extracts the 8-byte entry. ok=false aborts the walk on an integrity
// exception.
func (w *Walker) fetchEntry(ea uint64, res *WalkResult) (pte.Entry, bool) {
	res.MemAccesses++
	w.memAccesses++
	line, ok := w.read(ea &^ uint64(pte.LineBytes-1))
	if !ok {
		w.checkFailures++
		res.CheckFailed = true
		return 0, false
	}
	return line[ea/8%pte.PTEsPerLine], true
}

// dropLineValues deletes the entry values backing one evicted cacheline:
// the MMU cache tracks 64-byte lines while the value map is keyed by 8-byte
// entry addresses, so an eviction clears all eight slots.
func dropLineValues(values map[uint64]pte.Entry, lineAddr uint64) {
	for i := 0; i < pte.PTEsPerLine; i++ {
		delete(values, lineAddr+uint64(i*8))
	}
}

// InvalidateEntry drops a cached upper-level entry (e.g. after the OS
// rewrites a page table).
func (w *Walker) InvalidateEntry(ea uint64) {
	w.mmu.Invalidate(ea)
	delete(w.values, ea)
}

// Flush drops the entire MMU cache (e.g. after the OS migrates a table
// page: every cached upper-level entry may point at the old frame).
func (w *Walker) Flush() {
	w.mmu.Reset()
	w.values = make(map[uint64]pte.Entry)
}

// WalkerStats summarises walker activity.
type WalkerStats struct {
	Walks, MemAccesses, MMUHits, CheckFailures uint64
}

// Stats returns a snapshot.
func (w *Walker) Stats() WalkerStats {
	return WalkerStats{
		Walks: w.walks, MemAccesses: w.memAccesses,
		MMUHits: w.mmuHits, CheckFailures: w.checkFailures,
	}
}

// ResetStats zeroes the walk counters but keeps the MMU cache contents
// (used after a warm-up phase).
func (w *Walker) ResetStats() {
	w.walks, w.memAccesses, w.mmuHits, w.checkFailures = 0, 0, 0, 0
	w.mmu.ResetStats()
}

// PublishObs feeds the walker counters into the metric registry under
// "walker." (the obs snapshot path; a nil registry is a no-op).
func (w *Walker) PublishObs(r *obs.Registry) {
	if r == nil {
		return
	}
	r.SetCounter("walker.walks", w.walks)
	r.SetCounter("walker.mem_accesses", w.memAccesses)
	r.SetCounter("walker.mmu_hits", w.mmuHits)
	r.SetCounter("walker.check_failures", w.checkFailures)
}
