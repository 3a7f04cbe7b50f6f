package tlb

import (
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

// NestedWalker performs 2-D (guest + stage-2/EPT) page walks. The guest
// dimension is a Walker whose entry addresses are guest-physical: each is
// turned into a host-physical one by a stage-2 walk before the guest MMU
// cache and line reader see it, so both dimensions keep their own MMU
// caches, mirroring the combined paging-structure caches of VMX hardware.
// The two line readers let the caller route each dimension through an
// independently PT-Guard-protected memory controller — the guard-placement
// matrix the inter-VM campaigns sweep.
// Not safe for concurrent use.
type NestedWalker struct {
	guest, s2   *Walker
	maxAccesses uint64
}

// NewNestedWalker builds a 2-D walker. guestRead serves guest-table lines,
// s2Read serves stage-2 table lines; each goes through its own (possibly
// guarded) controller.
func NewNestedWalker(guestRead, s2Read LineReader) (*NestedWalker, error) {
	guest, err := NewWalker(guestRead)
	if err != nil {
		return nil, err
	}
	s2, err := NewWalker(s2Read)
	if err != nil {
		return nil, err
	}
	return &NestedWalker{guest: guest, s2: s2}, nil
}

// NestedWalkResult describes one 2-D page walk.
type NestedWalkResult struct {
	// HostPFN is the final host frame (valid when !Fault && !CheckFailed).
	HostPFN uint64
	// MemAccesses counts all PTE-line reads past the MMU caches, guest and
	// stage-2 combined.
	MemAccesses int
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
	res := NestedWalkResult{}
	g := w.guest.walk(gcr3, vaddr, func(gpa uint64) (uint64, bool) {
		return w.translateGPA(s2root, gpa, &res)
	})
	res.MemAccesses += g.MemAccesses
	switch {
	case res.Fault || res.CheckFailed: // a stage-2 walk aborted the guest walk
	case g.Fault:
		res.Fault = true
	case g.CheckFailed:
		res.CheckFailed = true
	default:
		// The guest leaf's frame (a 2 MB leaf's included) is a GPA the
		// final stage-2 walk turns into the host frame.
		if haddr, ok := w.translateGPA(s2root, g.PFN<<pte.PageShift, &res); ok {
			res.HostPFN = haddr >> pte.PageShift
		}
	}
	if a := uint64(res.MemAccesses); a > w.maxAccesses {
		w.maxAccesses = a
	}
	return res
}

// translateGPA walks the stage-2 tables to turn a guest-physical address
// into a host-physical one, charging the stage-2 accesses to res. ok=false
// aborts the nested walk, tagging the failure as stage-2.
func (w *NestedWalker) translateGPA(s2root, gpa uint64, res *NestedWalkResult) (uint64, bool) {
	s2 := w.s2.Walk(s2root, gpa)
	res.MemAccesses += s2.MemAccesses
	if s2.Fault || s2.CheckFailed {
		res.Fault, res.CheckFailed, res.Stage2 = s2.Fault, s2.CheckFailed, true
		return 0, false
	}
	return s2.PFN<<pte.PageShift | gpa&(pte.PageSize-1), true
}

// Flush drops both dimensions' MMU caches (a full shootdown, e.g. after the
// hypervisor migrates table pages).
func (w *NestedWalker) Flush() {
	w.guest.Flush()
	w.s2.Flush()
}

// NestedStats summarises 2-D walker activity.
type NestedStats struct {
	// Walks counts nested translations; GuestAccesses and S2Accesses count
	// PTE-line reads past the MMU caches per dimension.
	Walks, GuestAccesses, S2Accesses uint64
	// MMUHits counts guest-dimension MMU-cache hits; the stage-2
	// dimension's hits are in the stage-2 walker's own stats.
	MMUHits uint64
	// CheckFailures counts walks aborted by a PT-Guard integrity
	// exception in either dimension.
	CheckFailures uint64
	// MaxAccesses is the largest per-walk memory-access count observed
	// (bounded by MaxNestedAccesses).
	MaxAccesses uint64
}

// Stats returns a snapshot. An aborted walk fails in exactly one
// dimension, so the two walkers' check failures add up.
func (w *NestedWalker) Stats() NestedStats {
	g, s2 := w.guest.Stats(), w.s2.Stats()
	return NestedStats{
		Walks: g.Walks, GuestAccesses: g.MemAccesses, S2Accesses: s2.MemAccesses,
		MMUHits: g.MMUHits, CheckFailures: g.CheckFailures + s2.CheckFailures,
		MaxAccesses: w.maxAccesses,
	}
}

// PublishObs feeds the 2-D walker counters into the metric registry under
// "walker2d." (the obs snapshot path; a nil registry is a no-op). The
// stage-2 walker's 1-D counters land under "walker.", so 1-D and 2-D walk
// pressure are distinguishable side by side; the guest walker's own
// counters appear only through "walker2d.".
func (w *NestedWalker) PublishObs(r *obs.Registry) {
	if r == nil {
		return
	}
	st := w.Stats()
	r.SetCounter("walker2d.walks", st.Walks)
	r.SetCounter("walker2d.guest_accesses", st.GuestAccesses)
	r.SetCounter("walker2d.s2_accesses", st.S2Accesses)
	r.SetCounter("walker2d.mem_accesses", st.GuestAccesses+st.S2Accesses)
	r.SetCounter("walker2d.mmu_hits", st.MMUHits)
	r.SetCounter("walker2d.check_failures", st.CheckFailures)
	r.SetCounter("walker2d.max_accesses", st.MaxAccesses)
	w.s2.PublishObs(r)
}
