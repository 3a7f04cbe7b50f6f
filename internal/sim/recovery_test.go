package sim

import (
	"testing"

	"ptguard/internal/dram"
	"ptguard/internal/pte"
)

// corruptLine flips a burst of protected PTE bits in the DRAM image of the
// table line at lineAddr: far beyond any correction budget, so the failure
// is uncorrectable and must reach the OS recovery path.
func corruptLine(tb testing.TB, s *System, lineAddr uint64) {
	tb.Helper()
	hmr, err := dram.NewHammerer(s.dev, dram.HammerConfig{Seed: 99})
	if err != nil {
		tb.Fatal(err)
	}
	bits := make([]int, 0, 24)
	for i := 0; i < 24; i++ {
		bits = append(bits, i*3%20+64*(i%pte.PTEsPerLine)) // low flag/PFN bits across PTEs
	}
	hmr.FlipLineBits(lineAddr, bits)
}

// flushCaches empties the cache hierarchy, the TLB and the walker's MMU
// cache, forcing subsequent walks back to DRAM at every level: the
// cache-eviction step of a real Rowhammer exploit, after flips are
// injected.
func (s *System) flushCaches() {
	s.l1d.Reset()
	s.l2.Reset()
	s.l3.Reset()
	s.tlb.Flush()
	s.walker.Flush()
	s.cleanPTE = make(map[uint64]pte.Line)
}

// leafLineOf returns the DRAM address of the leaf PTE cacheline mapping
// vaddr.
func leafLineOf(tb testing.TB, s *System, vaddr uint64) uint64 {
	tb.Helper()
	ea, ok := s.tables.LeafEntryAddr(vaddr)
	if !ok {
		tb.Fatalf("vaddr %#x not mapped", vaddr)
	}
	return ea &^ uint64(pte.LineBytes-1)
}

// TestRecoveryRebuild is the end-to-end acceptance check: an uncorrectable
// fault on a live page-table line raises a recovery event, the OS rebuilds
// the line from authoritative mapping state, and the walk completes with
// the correct translation (raised -> recovered, no fatal).
func TestRecoveryRebuild(t *testing.T) {
	s, err := NewSystem(Config{Mode: PTGuard, Seed: 11, EnableRecovery: true}, testProfile(t, "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	vaddr := s.vbase
	wantPFN, ok := s.tables.Translate(vaddr)
	if !ok {
		t.Fatal("test vaddr not mapped")
	}
	lineAddr := leafLineOf(t, s, vaddr)
	corruptLine(t, s, lineAddr)
	s.flushCaches()

	res := s.walker.Walk(s.tables.Root(), vaddr)
	if res.CheckFailed {
		t.Fatal("walk still failed with recovery enabled")
	}
	if res.Fault {
		t.Fatal("walk faulted after recovery")
	}
	if res.PFN != wantPFN {
		t.Fatalf("recovered walk translated to PFN %#x, want %#x", res.PFN, wantPFN)
	}
	st := s.recovery
	if st.Raised != 1 || st.Recovered != 1 || st.Fatal != 0 {
		t.Fatalf("recovery stats = %+v, want raised=1 recovered=1 fatal=0", st)
	}
	if st.Rebuilds == 0 {
		t.Fatal("recovery did not rebuild the line")
	}
	if s.checkFails != 1 {
		t.Fatalf("checkFails = %d, want 1", s.checkFails)
	}
	// The rebuilt line is pristine again: the system keeps running with
	// no further integrity failures.
	run, err := s.Run(50_000)
	if err != nil {
		t.Fatal(err)
	}
	if run.CheckFails != 1 || run.Recovery.Fatal != 0 {
		t.Fatalf("post-recovery run: checkFails=%d recovery=%+v", run.CheckFails, run.Recovery)
	}
}

// TestFlushCachesReachesUpperLevelTables is the regression test for a
// cache flush that left the walker's MMU cache warm: a fault injected into
// an upper-level (PD) table line after warm-up must be fetched from DRAM,
// verified and recovered, not served from the MMU cache.
func TestFlushCachesReachesUpperLevelTables(t *testing.T) {
	s, err := NewSystem(Config{Mode: PTGuard, Seed: 11, EnableRecovery: true}, testProfile(t, "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(5000); err != nil {
		t.Fatal(err)
	}
	leafPage := leafLineOf(t, s, s.vbase) &^ uint64(pte.PageSize-1)
	pdEntry, ok := s.tables.ParentEntryAddr(leafPage)
	if !ok {
		t.Fatal("leaf table page has no parent entry")
	}
	corruptLine(t, s, pdEntry&^uint64(pte.LineBytes-1))
	s.flushCaches()
	s.ResetStats()
	res, err := s.Run(5000)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Recovery
	if st.Raised != 1 || st.Rebuilds != 1 || st.Recovered != 1 || st.Fatal != 0 {
		t.Fatalf("recovery after PD-line fault = %+v, want raised=1 rebuilds=1 recovered=1", st)
	}
}

// TestRecoveryDisabledStillFails pins the default behaviour: without
// EnableRecovery the same fault aborts the walk (§IV-F).
func TestRecoveryDisabledStillFails(t *testing.T) {
	s, err := NewSystem(Config{Mode: PTGuard, Seed: 11}, testProfile(t, "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	lineAddr := leafLineOf(t, s, s.vbase)
	corruptLine(t, s, lineAddr)
	s.flushCaches()

	res := s.walker.Walk(s.tables.Root(), s.vbase)
	if !res.CheckFailed {
		t.Fatal("corrupted walk passed without recovery")
	}
	if st := s.recovery; st != (RecoveryStats{}) {
		t.Fatalf("recovery ran while disabled: %+v", st)
	}
}

// TestRecoveryRemapEscalation: a table page that keeps raising failures is
// migrated to a fresh frame (§IV-G row quarantine) and the old frame goes
// out of service, while translations keep resolving.
func TestRecoveryRemapEscalation(t *testing.T) {
	s, err := NewSystem(Config{
		Mode:           PTGuard,
		Seed:           13,
		EnableRecovery: true,
		RemapAfter:     1, // escalate on the first failure
	}, testProfile(t, "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	vaddr := s.vbase
	wantPFN, _ := s.tables.Translate(vaddr)
	oldLine := leafLineOf(t, s, vaddr)
	oldPage := oldLine &^ uint64(pte.PageSize-1)
	corruptLine(t, s, oldLine)
	s.flushCaches()

	res := s.walker.Walk(s.tables.Root(), vaddr)
	if res.CheckFailed || res.Fault {
		t.Fatalf("walk did not recover: %+v", res)
	}
	if res.PFN != wantPFN {
		t.Fatalf("remapped walk translated to PFN %#x, want %#x", res.PFN, wantPFN)
	}
	st := s.recovery
	if st.Remaps != 1 || st.Recovered != 1 || st.Fatal != 0 {
		t.Fatalf("recovery stats = %+v, want remaps=1 recovered=1 fatal=0", st)
	}
	// The leaf PTE now lives in a different (migrated) table page.
	newLine := leafLineOf(t, s, vaddr)
	if newLine&^uint64(pte.PageSize-1) == oldPage {
		t.Fatal("leaf table page was not migrated")
	}
	if _, ok := s.tables.LineAt(oldLine); ok {
		t.Fatal("quarantined page still owns table lines")
	}
	// The system keeps running on the migrated tables.
	run, err := s.Run(50_000)
	if err != nil {
		t.Fatal(err)
	}
	if run.CheckFails != 1 || run.Recovery.Fatal != 0 {
		t.Fatalf("post-remap run: checkFails=%d recovery=%+v", run.CheckFails, run.Recovery)
	}
}

// TestRecoveryFatalWithoutAuthoritativeState: a line the OS does not own
// cannot be rebuilt; recovery must report a fatal event, not loop.
func TestRecoveryFatalWithoutAuthoritativeState(t *testing.T) {
	s, err := NewSystem(Config{Mode: PTGuard, Seed: 17, EnableRecovery: true}, testProfile(t, "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	// An address far outside any table page of this process.
	if _, ok := s.recoverPTELine(0x3F00_0000); ok {
		t.Fatal("recovered a line with no authoritative copy")
	}
	st := s.recovery
	if st.Raised != 1 || st.Fatal != 1 || st.Recovered != 0 {
		t.Fatalf("recovery stats = %+v, want raised=1 fatal=1", st)
	}
}

// TestRecoveryRepeatedFaultsConverge: hammer the same line before each of
// several walks; each failure recovers, and the second one escalates to a
// remap under the default RemapAfter=2, after which the old address is out
// of the walk path entirely.
func TestRecoveryRepeatedFaultsConverge(t *testing.T) {
	s, err := NewSystem(Config{Mode: PTGuard, Seed: 19, EnableRecovery: true}, testProfile(t, "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	vaddr := s.vbase + 4*pte.PageSize
	wantPFN, _ := s.tables.Translate(vaddr)
	for round := 0; round < 2; round++ {
		lineAddr := leafLineOf(t, s, vaddr)
		corruptLine(t, s, lineAddr)
		s.flushCaches()
		res := s.walker.Walk(s.tables.Root(), vaddr)
		if res.CheckFailed || res.PFN != wantPFN {
			t.Fatalf("round %d: walk = %+v, want PFN %#x", round, res, wantPFN)
		}
	}
	st := s.recovery
	if st.Raised != 2 || st.Recovered != 2 || st.Fatal != 0 {
		t.Fatalf("recovery stats = %+v, want raised=2 recovered=2", st)
	}
	if st.Remaps != 1 {
		t.Fatalf("remaps = %d, want 1 (escalation on second failure)", st.Remaps)
	}
}
