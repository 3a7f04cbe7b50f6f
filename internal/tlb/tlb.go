// Package tlb models the address-translation hardware of the baseline
// system (Table III): a 64-entry fully-associative TLB, an 8 KB 4-way MMU
// (page-walk) cache, and the 4-level x86_64 page-table walker that issues
// the tagged isPTE memory reads PT-Guard verifies.
package tlb

import (
	"fmt"

	"ptguard/internal/obs"
)

// DefaultEntries is the TLB capacity (Table III).
const DefaultEntries = 64

type tlbEntry struct {
	vmid    int // address-space tag: 0 for the bare-metal OS, per-VM otherwise
	vpn     uint64
	pfn     uint64
	span    uint64 // pages covered: 1 for 4 KB entries, 512 for 2 MB
	valid   bool
	lastUse uint64
}

// hintSlots is the number of lookup hints, indexed by vpn mod hintSlots.
const hintSlots = 256

// TLB is a fully-associative, LRU translation lookaside buffer.
// Not safe for concurrent use.
type TLB struct {
	entries []tlbEntry
	clock   uint64

	// hint names, per vpn slot, the entry that last served or installed a
	// page of that slot. LookupVM takes the hinted entry when it matches
	// and overlap is false: no two valid entries of one VMID then cover a
	// common page, so at most one entry matches, and it is the one the
	// first-match scan would return. An insert that overlaps a live entry
	// of its VMID sets overlap; Flush clears it.
	hint    [hintSlots]int
	overlap bool

	hits, misses uint64
}

// New builds a TLB with the given capacity (0 selects 64).
func New(entries int) (*TLB, error) {
	if entries == 0 {
		entries = DefaultEntries
	}
	if entries < 0 {
		return nil, fmt.Errorf("tlb: negative capacity %d", entries)
	}
	return &TLB{entries: make([]tlbEntry, entries)}, nil
}

// Lookup translates a virtual page number; ok is false on a TLB miss.
// Spanned (huge-page) entries translate every page they cover.
func (t *TLB) Lookup(vpn uint64) (pfn uint64, ok bool) { return t.LookupVM(0, vpn) }

// LookupVM translates a virtual page number within the given VM's address
// space; ok is false on a TLB miss. Entries are VMID-tagged (like hardware
// VPID/ASID tags), so translations of different tenants coexist without
// cross-VM flushes — and never alias.
func (t *TLB) LookupVM(vmid int, vpn uint64) (pfn uint64, ok bool) {
	t.clock++
	slot := &t.hint[vpn%hintSlots]
	if e := &t.entries[*slot]; !t.overlap && e.matches(vmid, vpn) {
		return t.hit(e, vpn), true
	}
	for i := range t.entries {
		if e := &t.entries[i]; e.matches(vmid, vpn) {
			*slot = i
			return t.hit(e, vpn), true
		}
	}
	t.misses++
	return 0, false
}

// matches reports whether the entry translates vpn in vmid's address space.
func (e *tlbEntry) matches(vmid int, vpn uint64) bool {
	return e.valid && e.vmid == vmid && vpn-e.vpn < e.span
}

// overlaps reports whether the entry shares a page with the span of pages
// [vpn, vpn+span) in vmid's address space. Spans compare modulo 2^64, as in
// matches: two spans share a page exactly when one starts inside the other.
func (e *tlbEntry) overlaps(vmid int, vpn, span uint64) bool {
	return e.valid && e.vmid == vmid && (vpn-e.vpn < e.span || e.vpn-vpn < span)
}

// hit charges a hit to e and returns vpn's frame.
func (t *TLB) hit(e *tlbEntry, vpn uint64) uint64 {
	e.lastUse = t.clock
	t.hits++
	return e.pfn + (vpn - e.vpn)
}

// Insert installs a 4 KB translation, evicting the LRU entry if full.
func (t *TLB) Insert(vpn, pfn uint64) { t.InsertSpanVM(0, vpn, pfn, 1) }

// InsertVM installs a 4 KB translation tagged with the VM's VMID.
func (t *TLB) InsertVM(vmid int, vpn, pfn uint64) { t.InsertSpanVM(vmid, vpn, pfn, 1) }

// InsertSpan installs a translation covering span consecutive pages (512
// for a 2 MB huge-page entry), evicting the LRU entry if full.
func (t *TLB) InsertSpan(vpn, pfn, span uint64) { t.InsertSpanVM(0, vpn, pfn, span) }

// InsertSpanVM installs a VMID-tagged translation covering span consecutive
// pages, evicting the LRU entry if full.
//
// One pass picks the victim and finds the live entries the new one
// overlaps. Invalid entries are zero, so their lastUse is 0, while a valid
// entry's is at least 1 (the clock is bumped before each use): the first
// entry with the lowest lastUse is the first invalid entry when there is
// one, else the least recently used.
func (t *TLB) InsertSpanVM(vmid int, vpn, pfn, span uint64) {
	if span == 0 {
		span = 1
	}
	t.clock++
	victim, oldest := 0, t.entries[0].lastUse
	overlaps, overlapAt := 0, 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.lastUse < oldest {
			victim, oldest = i, e.lastUse
		}
		if e.overlaps(vmid, vpn, span) {
			overlaps, overlapAt = overlaps+1, i
		}
	}
	// The victim's own overlap goes with it.
	if overlaps > 1 || overlaps == 1 && overlapAt != victim {
		t.overlap = true
	}
	t.entries[victim] = tlbEntry{vmid: vmid, vpn: vpn, pfn: pfn, span: span, valid: true, lastUse: t.clock}
	t.hint[vpn%hintSlots] = victim
}

// Flush invalidates every entry (context switch / shootdown).
func (t *TLB) Flush() {
	for i := range t.entries {
		t.entries[i] = tlbEntry{}
	}
	t.overlap = false
}

// FlushVM invalidates only the given VM's entries (the targeted shootdown a
// hypervisor issues after rewriting one tenant's tables); other tenants'
// translations stay warm.
func (t *TLB) FlushVM(vmid int) {
	for i := range t.entries {
		if t.entries[i].valid && t.entries[i].vmid == vmid {
			t.entries[i] = tlbEntry{}
		}
	}
}

// Stats reports hit/miss counts.
type Stats struct {
	Hits, Misses uint64
}

// Stats returns a snapshot.
func (t *TLB) Stats() Stats { return Stats{Hits: t.hits, Misses: t.misses} }

// MissRate returns misses/lookups (0 when idle).
func (s Stats) MissRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}

// ResetStats zeroes the hit/miss counters but keeps the entries.
func (t *TLB) ResetStats() { t.hits, t.misses = 0, 0 }

// PublishObs feeds the TLB counters into the metric registry under "tlb."
// (the obs snapshot path; a nil registry is a no-op).
func (t *TLB) PublishObs(r *obs.Registry) {
	if r == nil {
		return
	}
	r.SetCounter("tlb.hits", t.hits)
	r.SetCounter("tlb.misses", t.misses)
	r.SetGauge("tlb.miss_rate", t.Stats().MissRate())
}
