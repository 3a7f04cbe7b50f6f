package tlb

import (
	"testing"

	"ptguard/internal/cache"
	"ptguard/internal/pte"
)

func TestTLBVMIDTagging(t *testing.T) {
	tl, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	tl.InsertVM(1, 5, 100)
	tl.InsertVM(2, 5, 200)
	if pfn, ok := tl.LookupVM(1, 5); !ok || pfn != 100 {
		t.Fatalf("vm1 lookup = (%d, %v), want (100, true)", pfn, ok)
	}
	if pfn, ok := tl.LookupVM(2, 5); !ok || pfn != 200 {
		t.Fatalf("vm2 lookup = (%d, %v), want (200, true)", pfn, ok)
	}
	if _, ok := tl.LookupVM(3, 5); ok {
		t.Fatal("vm3 must miss: same vpn, different VMID")
	}
	// The untagged API is VMID 0 and must not alias tagged entries.
	tl.Insert(5, 300)
	if pfn, ok := tl.Lookup(5); !ok || pfn != 300 {
		t.Fatalf("vmid-0 lookup = (%d, %v), want (300, true)", pfn, ok)
	}
	if pfn, _ := tl.LookupVM(1, 5); pfn != 100 {
		t.Fatal("vmid-0 insert clobbered a tagged entry")
	}
}

func TestTLBFlushVMIsTargeted(t *testing.T) {
	tl, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	tl.InsertVM(1, 10, 111)
	tl.InsertVM(2, 20, 222)
	tl.FlushVM(1)
	if _, ok := tl.LookupVM(1, 10); ok {
		t.Fatal("vm1 entry survived FlushVM(1)")
	}
	if pfn, ok := tl.LookupVM(2, 20); !ok || pfn != 222 {
		t.Fatal("vm2 entry did not survive FlushVM(1)")
	}
}

// syntheticReader fabricates a present, walkable entry for any address, so
// a walker can be driven over an unbounded set of distinct table lines.
func syntheticReader(addr uint64) (pte.Line, bool) {
	var line pte.Line
	for i := range line {
		ea := addr + uint64(i*8)
		e := pte.Entry(0).
			SetBit(pte.BitPresent, true).
			SetBit(pte.BitWritable, true).
			WithPFN(ea / pte.PageSize % (1 << 28))
		line[i] = e
	}
	return line, true
}

// TestWalkerValuesBounded pins the fix for the values-map leak: the
// entry-value map backing MMU-cache presence must stay bounded by the
// cache's line capacity across arbitrarily many walks, and flush cycles
// must clear it — days-of-uptime fleet runs walk millions of distinct
// table lines through one walker.
func TestWalkerValuesBounded(t *testing.T) {
	w, err := NewWalker(syntheticReader)
	if err != nil {
		t.Fatal(err)
	}
	// Bound: one value per entry slot of every cached line.
	bound := cache.MMUConfig.SizeBytes / pte.LineBytes * pte.PTEsPerLine
	const flushCycles = 8
	const walksPerCycle = 4000
	for cycle := 0; cycle < flushCycles; cycle++ {
		for i := 0; i < walksPerCycle; i++ {
			// Distinct roots spread walks over distinct table lines.
			cr3 := uint64(cycle*walksPerCycle+i+1) * pte.PageSize
			w.Walk(cr3, uint64(i)*pte.PageSize)
			if got := len(w.values); got > bound {
				t.Fatalf("cycle %d walk %d: %d cached values, bound %d", cycle, i, got, bound)
			}
		}
		w.Flush()
		if got := len(w.values); got != 0 {
			t.Fatalf("cycle %d: %d cached values after Flush, want 0", cycle, got)
		}
	}
}

// TestWalkerValuesTrimmedOnEviction drives enough distinct upper-level
// lines through the MMU cache to force evictions and checks the value map
// tracks the cache rather than history.
func TestWalkerValuesTrimmedOnEviction(t *testing.T) {
	w, err := NewWalker(syntheticReader)
	if err != nil {
		t.Fatal(err)
	}
	lines := cache.MMUConfig.SizeBytes / pte.LineBytes
	walks := lines * 64 // far past capacity
	for i := 0; i < walks; i++ {
		w.Walk(uint64(i+1)*pte.PageSize, 0)
	}
	if st := w.Stats(); st.Walks != uint64(walks) {
		t.Fatalf("walks = %d, want %d", st.Walks, walks)
	}
	bound := lines * pte.PTEsPerLine
	if got := len(w.values); got > bound {
		t.Fatalf("%d cached values after %d walks, bound %d", got, walks, bound)
	}
}
