package virt

import (
	"testing"

	"ptguard/internal/pte"
	"ptguard/internal/tlb"
)

var sinkNested tlb.NestedWalkResult

// BenchmarkNestedWalk times one 2-D walk (Host.Walker.Walk, no TLB) with
// warm MMU caches: the walks cycle over every page of two tenants. No layer
// is guarded, so the time is the walk loop, the MMU caches and the
// controllers' DRAM reads, not MAC verification. It reports memory reads
// per walk.
func BenchmarkNestedWalk(b *testing.B) {
	const tenants, pages = 2, 64
	h, err := NewHost(Config{Tenants: tenants, PagesPerVM: pages, Placement: PlacementNone, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	type walk struct{ s2root, gcr3, vaddr uint64 }
	walks := make([]walk, 0, tenants*pages)
	for i := 0; i < pages; i++ {
		for _, vm := range h.VMs {
			walks = append(walks, walk{vm.Stage2.Root(), vm.GuestPT.Root(), GuestVBase + uint64(i)*pte.PageSize})
		}
	}
	for _, w := range walks {
		if res := h.Walker.Walk(w.s2root, w.gcr3, w.vaddr); res.Fault || res.CheckFailed {
			b.Fatalf("walk of %#x failed: %+v", w.vaddr, res)
		}
	}
	before := h.Walker.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := walks[i%len(walks)]
		sinkNested = h.Walker.Walk(w.s2root, w.gcr3, w.vaddr)
	}
	b.StopTimer()
	st := h.Walker.Stats()
	reads := st.GuestAccesses + st.S2Accesses - before.GuestAccesses - before.S2Accesses
	b.ReportMetric(float64(reads)/float64(b.N), "reads/walk")
}
