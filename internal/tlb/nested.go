package tlb

import (
	"errors"

	"ptguard/internal/cache"
	"ptguard/internal/obs"
	"ptguard/internal/pte"
)

// MaxNestedAccesses is the worst-case memory cost of one 2-D page walk with
// cold MMU caches: each of the 4 guest levels needs a full 4-level stage-2
// walk to find the guest table's host frame plus 1 read of the guest entry
// itself (4 × 5 = 20), and the final guest-physical leaf address needs one
// more stage-2 walk (4) — 24 accesses per guest translation, the
// virtualization tax that makes hypervisor page tables such a rich
// Rowhammer target surface.
const MaxNestedAccesses = Levels*(Levels+1) + Levels

// NestedWalker performs 2-D (guest + stage-2/EPT) page walks. Guest-table
// entries are read at host-physical addresses obtained by walking the
// stage-2 tables; both dimensions keep their own MMU caches, mirroring the
// combined paging-structure caches of VMX hardware. The two line readers
// let the caller route each dimension through an independently
// PT-Guard-protected memory controller — the guard-placement matrix the
// inter-VM campaigns sweep.
// Not safe for concurrent use.
type NestedWalker struct {
	s2     *Walker              // stage-2 dimension, with its own MMU cache
	mmu    *cache.Cache         // guest-dimension MMU cache (host-address keyed)
	values map[uint64]pte.Entry // entry values backing MMU-cache presence
	read   LineReader           // guest-table line reads

	walks, guestAccesses, mmuHits uint64
	checkFailures                 uint64
	maxAccesses                   uint64
}

// NewNestedWalker builds a 2-D walker. guestRead serves guest-table lines,
// s2Read serves stage-2 table lines; each goes through its own (possibly
// guarded) controller.
func NewNestedWalker(guestRead, s2Read LineReader) (*NestedWalker, error) {
	if guestRead == nil || s2Read == nil {
		return nil, errors.New("tlb: nil nested line reader")
	}
	s2, err := NewWalker(s2Read)
	if err != nil {
		return nil, err
	}
	mmu, err := cache.New(cache.MMUConfig)
	if err != nil {
		return nil, err
	}
	return &NestedWalker{s2: s2, mmu: mmu, values: make(map[uint64]pte.Entry), read: guestRead}, nil
}

// NestedWalkResult describes one 2-D page walk.
type NestedWalkResult struct {
	// HostPFN is the final host frame (valid when !Fault && !CheckFailed).
	HostPFN uint64
	// GPA is the guest-physical address the guest walk resolved to (set
	// once the guest dimension completes, even if the final stage-2
	// translation then fails).
	GPA uint64
	// Entry is the guest leaf PTE.
	Entry pte.Entry
	// MemAccesses counts all PTE-line reads past the MMU caches, guest and
	// stage-2 combined; GuestAccesses and S2Accesses split it by dimension.
	MemAccesses   int
	GuestAccesses int
	S2Accesses    int
	// Fault reports a non-present entry in either dimension.
	Fault bool
	// CheckFailed reports a PT-Guard integrity exception in either
	// dimension: the walk aborted and no translation may be consumed.
	CheckFailed bool
	// Stage2 marks the faulting/failing access as a stage-2 one: the
	// hypervisor's tables, not the guest's, were the corrupted structure.
	Stage2 bool
}

// Walk translates the guest-virtual vaddr for the VM whose stage-2 root is
// s2root and whose guest CR3 (a guest-physical address) is gcr3.
func (w *NestedWalker) Walk(s2root, gcr3, vaddr uint64) NestedWalkResult {
	w.walks++
	res := NestedWalkResult{}
	defer func() {
		if a := uint64(res.MemAccesses); a > w.maxAccesses {
			w.maxAccesses = a
		}
	}()
	gbase := gcr3
	for level := 0; level < Levels; level++ {
		gea := entryAddr(gbase, vaddr, level)
		hea, ok := w.translateGPA(s2root, gea, &res)
		if !ok {
			return res
		}
		var entry pte.Entry
		// Upper guest levels consult the guest-dimension MMU cache, keyed
		// by the entry's host address (unique per VM, so no VMID needed).
		if level < Levels-1 {
			acc := w.mmu.Access(hea, false)
			if acc.EvValid {
				dropLineValues(w.values, acc.Evicted)
			}
			if v, vok := w.values[hea]; acc.Hit && vok {
				w.mmuHits++
				entry = v
			} else {
				e, fok := w.fetchGuestEntry(hea, &res)
				if !fok {
					return res
				}
				entry = e
				if !acc.Hit {
					w.values[hea] = entry
				}
			}
		} else {
			e, fok := w.fetchGuestEntry(hea, &res)
			if !fok {
				return res
			}
			entry = e
		}
		if !entry.Present() {
			res.Fault = true
			return res
		}
		if level == Levels-2 && entry.Bit(pte.BitHugePage) {
			// 2 MB guest page: the guest PDE is the leaf.
			res.Entry = entry
			res.GPA = (entry.PFN() + vaddr>>pte.PageShift&0x1FF) << pte.PageShift
			return w.finishLeaf(s2root, &res)
		}
		if level == Levels-1 {
			res.Entry = entry
			res.GPA = entry.PFN() << pte.PageShift
			return w.finishLeaf(s2root, &res)
		}
		gbase = entry.PFN() << pte.PageShift
	}
	res.Fault = true
	return res
}

// finishLeaf performs the final stage-2 walk of the guest leaf's
// guest-physical address, yielding the host frame.
func (w *NestedWalker) finishLeaf(s2root uint64, res *NestedWalkResult) NestedWalkResult {
	haddr, ok := w.translateGPA(s2root, res.GPA, res)
	if !ok {
		return *res
	}
	res.HostPFN = haddr >> pte.PageShift
	return *res
}

// translateGPA walks the stage-2 tables to turn a guest-physical address
// into a host-physical one, charging the stage-2 accesses to res. ok=false
// aborts the nested walk, tagging the failure as stage-2.
func (w *NestedWalker) translateGPA(s2root, gpa uint64, res *NestedWalkResult) (uint64, bool) {
	s2 := w.s2.Walk(s2root, gpa)
	res.MemAccesses += s2.MemAccesses
	res.S2Accesses += s2.MemAccesses
	switch {
	case s2.CheckFailed:
		w.checkFailures++
		res.CheckFailed = true
		res.Stage2 = true
		return 0, false
	case s2.Fault:
		res.Fault = true
		res.Stage2 = true
		return 0, false
	}
	return s2.PFN<<pte.PageShift | gpa&(pte.PageSize-1), true
}

// fetchGuestEntry reads the guest-table line containing the host address
// hea and extracts the 8-byte guest entry. ok=false aborts on an integrity
// exception in the guest dimension.
func (w *NestedWalker) fetchGuestEntry(hea uint64, res *NestedWalkResult) (pte.Entry, bool) {
	res.MemAccesses++
	res.GuestAccesses++
	w.guestAccesses++
	line, ok := w.read(hea &^ uint64(pte.LineBytes-1))
	if !ok {
		w.checkFailures++
		res.CheckFailed = true
		return 0, false
	}
	return line[hea/8%pte.PTEsPerLine], true
}

// Flush drops both dimensions' MMU caches (a full shootdown, e.g. after the
// hypervisor migrates table pages).
func (w *NestedWalker) Flush() {
	w.mmu.Reset()
	w.values = make(map[uint64]pte.Entry)
	w.s2.Flush()
}

// NestedStats summarises 2-D walker activity.
type NestedStats struct {
	// Walks counts nested translations; GuestAccesses and S2Accesses count
	// PTE-line reads past the MMU caches per dimension.
	Walks, GuestAccesses, S2Accesses uint64
	// MMUHits counts guest-dimension MMU-cache hits; the stage-2
	// dimension's hits are in the embedded walker's own stats.
	MMUHits uint64
	// CheckFailures counts walks aborted by a PT-Guard integrity
	// exception in either dimension.
	CheckFailures uint64
	// MaxAccesses is the largest per-walk memory-access count observed
	// (bounded by MaxNestedAccesses).
	MaxAccesses uint64
}

// Stats returns a snapshot.
func (w *NestedWalker) Stats() NestedStats {
	return NestedStats{
		Walks: w.walks, GuestAccesses: w.guestAccesses,
		S2Accesses: w.s2.Stats().MemAccesses,
		MMUHits:    w.mmuHits, CheckFailures: w.checkFailures,
		MaxAccesses: w.maxAccesses,
	}
}

// PublishObs feeds the 2-D walker counters into the metric registry under
// "walker2d." (the obs snapshot path; a nil registry is a no-op). The
// stage-2 dimension's 1-D counters land under "walker." via the embedded
// walker, so 1-D and 2-D walk pressure are distinguishable side by side.
func (w *NestedWalker) PublishObs(r *obs.Registry) {
	if r == nil {
		return
	}
	r.SetCounter("walker2d.walks", w.walks)
	r.SetCounter("walker2d.guest_accesses", w.guestAccesses)
	r.SetCounter("walker2d.s2_accesses", w.s2.Stats().MemAccesses)
	r.SetCounter("walker2d.mem_accesses", w.guestAccesses+w.s2.Stats().MemAccesses)
	r.SetCounter("walker2d.mmu_hits", w.mmuHits)
	r.SetCounter("walker2d.check_failures", w.checkFailures)
	r.SetCounter("walker2d.max_accesses", w.maxAccesses)
	w.s2.PublishObs(r)
}
