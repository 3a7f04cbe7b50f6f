package attack

import (
	"errors"
	"math"
	"testing"
	"time"

	"ptguard/internal/baseline"
	"ptguard/internal/core"
	"ptguard/internal/dram"
	"ptguard/internal/pte"
	"ptguard/internal/tlb"
)

func TestPrivilegeEscalationSucceedsUnprotected(t *testing.T) {
	w, err := NewWorld(false, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := w.PrivilegeEscalation(VictimVBase)
	if err != nil {
		t.Fatal(err)
	}
	if !out.ExploitSucceeded {
		t.Fatalf("exploit failed on unprotected system: %s", out.Description)
	}
	if out.Detected {
		t.Error("unprotected system claims detection")
	}
}

func TestPrivilegeEscalationDetectedByPTGuard(t *testing.T) {
	w, err := NewWorld(true, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := w.PrivilegeEscalation(VictimVBase)
	if err != nil {
		t.Fatal(err)
	}
	if out.ExploitSucceeded {
		t.Fatalf("exploit succeeded despite PT-Guard: %s", out.Description)
	}
	if !out.Detected {
		t.Errorf("PT-Guard did not detect: %s", out.Description)
	}
}

func TestPrivilegeEscalationThwartedByCorrection(t *testing.T) {
	// With correction enabled, a small exploit flip may be *repaired*
	// instead of raising an exception; either way the attacker never gets
	// the tampered translation.
	w, err := NewWorld(true, true, 5)
	if err != nil {
		t.Fatal(err)
	}
	out, err := w.PrivilegeEscalation(VictimVBase + 3*pte.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if out.ExploitSucceeded {
		t.Fatalf("exploit succeeded despite correction: %s", out.Description)
	}
}

func TestMetadataAttacks(t *testing.T) {
	bits := []struct {
		name string
		bit  int
	}{
		{name: "user-accessible", bit: pte.BitUserAccessible},
		{name: "writable", bit: pte.BitWritable},
		{name: "nx", bit: pte.BitNX},
		{name: "mpk", bit: 60},
	}
	for _, tt := range bits {
		t.Run(tt.name, func(t *testing.T) {
			unprot, err := NewWorld(false, false, 9)
			if err != nil {
				t.Fatal(err)
			}
			out, err := unprot.MetadataAttack(VictimVBase, tt.bit)
			if err != nil {
				t.Fatal(err)
			}
			if !out.ExploitSucceeded {
				t.Errorf("unprotected metadata attack failed: %s", out.Description)
			}

			prot, err := NewWorld(true, false, 9)
			if err != nil {
				t.Fatal(err)
			}
			out, err = prot.MetadataAttack(VictimVBase, tt.bit)
			if err != nil {
				t.Fatal(err)
			}
			if out.ExploitSucceeded || !out.Detected {
				t.Errorf("PT-Guard missed metadata attack: %s", out.Description)
			}
		})
	}
}

func TestHarvestMACLeaksTagButNotForgery(t *testing.T) {
	w, err := NewWorld(true, false, 33)
	if err != nil {
		t.Fatal(err)
	}
	h, err := w.HarvestMAC(0x200000, 7)
	if err != nil {
		t.Fatal(err)
	}
	empty := true
	for _, e := range h.MACField {
		if e != 0 {
			empty = false
		}
	}
	if empty {
		t.Fatal("harvest leaked no MAC bits")
	}
	// The leaked MAC is address-bound: replaying the forged line at a
	// different address must NOT collide (the guard key is never
	// exposed, so the attacker cannot recompute).
	forged := h.ForgeCollidingLine()
	res, err := w.Ctrl.WriteLine(h.Addr+0x40000, forged)
	_ = res
	if err != nil {
		t.Fatalf("replay write errored: %v", err)
	}
	if w.Guard().CTBLen() != 0 {
		t.Error("address-replayed forgery collided; MAC is not address-bound")
	}
}

func TestCTBOverflowDoSSignalsRekey(t *testing.T) {
	w, err := NewWorld(true, false, 44)
	if err != nil {
		t.Fatal(err)
	}
	tracked, err := w.CTBOverflowDoS(5)
	if !errors.Is(err, core.ErrCTBFull) {
		t.Fatalf("err = %v, want ErrCTBFull after overflow", err)
	}
	if tracked != core.DefaultCTBEntries {
		t.Errorf("tracked = %d, want %d before overflow", tracked, core.DefaultCTBEntries)
	}
}

func TestHarvestRequiresProtection(t *testing.T) {
	w, err := NewWorld(false, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.HarvestMAC(0x1000, 1); err == nil {
		t.Error("harvest on unprotected world accepted")
	}
	if _, err := w.CTBOverflowDoS(1); err == nil {
		t.Error("DoS on unprotected world accepted")
	}
}

func TestRunCoverage(t *testing.T) {
	res, err := RunCoverage(77, 150, 8)
	if err != nil {
		t.Fatal(err)
	}
	// §VI-F: PT-Guard detects 100% of injected faults.
	if res.PTGuardDetected != res.Trials {
		t.Errorf("PT-Guard detected %d/%d", res.PTGuardDetected, res.Trials)
	}
	// Monotonic pointers leave most patterns unprotected (metadata bits
	// or 0->1-free patterns are common).
	if res.MonotonicUnprotected == 0 {
		t.Error("monotonic pointers reported full coverage; model wrong")
	}
	t.Logf("coverage over %d trials: ptguard=%d secwalkMissed=%d secdedSilent=%d monotonicUnprot=%d",
		res.Trials, res.PTGuardDetected, res.SecWalkMissed, res.SECDEDSilent, res.MonotonicUnprotected)
}

func TestRunCoverageValidation(t *testing.T) {
	if _, err := RunCoverage(1, 0, 4); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := RunCoverage(1, 10, 0); err == nil {
		t.Error("zero flips accepted")
	}
	if _, err := RunCoverage(1, 10, 400); err == nil {
		t.Error("excessive flips accepted")
	}
}

func TestCraftedSecWalkEscapeCaughtByPTGuard(t *testing.T) {
	// The §II-E surgical pattern that fools SecWalk must still trip
	// PT-Guard's cryptographic check, end to end.
	w, err := NewWorld(true, false, 55)
	if err != nil {
		t.Fatal(err)
	}
	var sw baseline.SecWalk
	pattern, err := sw.CraftEscape(10)
	if err != nil {
		t.Fatal(err)
	}
	ea, ok := w.Tables.LeafEntryAddr(VictimVBase)
	if !ok {
		t.Fatal("victim unmapped")
	}
	lineAddr := ea &^ uint64(pte.LineBytes-1)
	entryIdx := int(ea / 8 % pte.PTEsPerLine)
	lineBits := make([]int, len(pattern))
	for i, b := range pattern {
		lineBits[i] = entryIdx*64 + b
	}
	w.Hammer.FlipLineBits(lineAddr, lineBits)
	if _, _, ok := w.Ctrl.ReadLine(lineAddr, true); ok {
		t.Error("SecWalk-escaping pattern passed PT-Guard")
	}
}

func TestRunCorrectionFig9(t *testing.T) {
	// Fig. 9 ground truth: ~93% corrected at p=1/512, ~70% at p=1/128,
	// 100% coverage (every erroneous line corrected or detected), zero
	// miscorrections.
	low, err := RunCorrection(CorrectionConfig{FlipProb: 1.0 / 512, Lines: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	high, err := RunCorrection(CorrectionConfig{FlipProb: 1.0 / 128, Lines: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("p=1/512: corrected %.1f%% coverage %.1f%%; p=1/128: corrected %.1f%% coverage %.1f%%",
		low.CorrectedPct(), low.CoveragePct(), high.CorrectedPct(), high.CoveragePct())
	if low.Miscorrected != 0 || high.Miscorrected != 0 {
		t.Fatalf("miscorrections: %d + %d, want 0", low.Miscorrected, high.Miscorrected)
	}
	if low.CoveragePct() != 100 || high.CoveragePct() != 100 {
		t.Errorf("coverage must be 100%%: got %.1f%% and %.1f%%", low.CoveragePct(), high.CoveragePct())
	}
	if low.CorrectedPct() < 80 {
		t.Errorf("p=1/512 corrected %.1f%%, want ~93%%", low.CorrectedPct())
	}
	if high.CorrectedPct() < 55 || high.CorrectedPct() > 85 {
		t.Errorf("p=1/128 corrected %.1f%%, want ~70%%", high.CorrectedPct())
	}
	if low.CorrectedPct() <= high.CorrectedPct() {
		t.Error("correction rate must fall as flip probability rises")
	}
}

func TestRunCorrectionValidation(t *testing.T) {
	if _, err := RunCorrection(CorrectionConfig{FlipProb: 0, Lines: 10}); err == nil {
		t.Error("zero FlipProb accepted")
	}
	if _, err := RunCorrection(CorrectionConfig{FlipProb: 0.01, Lines: 0}); err == nil {
		t.Error("zero Lines accepted")
	}
}

// A NaN flip probability passes a `p <= 0 || p >= 1` check, and
// flipLineBernoulli then redraws forever, because Bernoulli(NaN) never
// succeeds. Both Fig. 9 drivers must reject it, and the deadline turns a
// hang into a failure.
func TestFig9DriversRejectNaNFlipProb(t *testing.T) {
	nan := math.NaN()
	for name, run := range map[string]func() error{
		"RunCorrection": func() error {
			_, err := RunCorrection(CorrectionConfig{FlipProb: nan, Lines: 5, Seed: 1})
			return err
		},
		"RunTraceCorrection": func() error {
			_, err := RunTraceCorrection(TraceCorrectionConfig{Workload: "mcf", Instructions: 5000, FlipProb: nan, Trials: 5, Seed: 1})
			return err
		},
	} {
		done := make(chan error, 1)
		go func() { done <- run() }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s accepted FlipProb NaN", name)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s with FlipProb NaN did not return within 10 s", name)
		}
	}
}

func TestRunTraceCorrection(t *testing.T) {
	// §VI-F methodology: page-table-walk traces from the full-system run
	// feed the fault-injection experiment. 100% coverage, zero
	// miscorrections; correction rate high at the DDR4 fault rate.
	res, err := RunTraceCorrection(TraceCorrectionConfig{
		Workload:     "mcf",
		Instructions: 150_000,
		FlipProb:     1.0 / 512,
		Trials:       200,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("trace: %d lines / %d accesses; corrected %.1f%% coverage %.1f%%",
		res.TraceLines, res.WalkAccesses, res.CorrectedPct(), res.CoveragePct())
	if res.TraceLines == 0 || res.WalkAccesses < res.TraceLines {
		t.Errorf("trace accounting wrong: %+v", res)
	}
	if res.Miscorrected != 0 {
		t.Fatalf("miscorrections: %d", res.Miscorrected)
	}
	if res.CoveragePct() != 100 {
		t.Errorf("coverage = %.1f%%, want 100%%", res.CoveragePct())
	}
	if res.CorrectedPct() < 70 {
		t.Errorf("corrected = %.1f%%, want high at p=1/512", res.CorrectedPct())
	}
}

func TestRunTraceCorrectionValidation(t *testing.T) {
	if _, err := RunTraceCorrection(TraceCorrectionConfig{Workload: "mcf", Instructions: 100, FlipProb: 0, Trials: 1}); err == nil {
		t.Error("zero FlipProb accepted")
	}
	if _, err := RunTraceCorrection(TraceCorrectionConfig{Workload: "nope", Instructions: 100, FlipProb: 0.01, Trials: 1}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := RunTraceCorrection(TraceCorrectionConfig{Workload: "mcf", Instructions: 0, FlipProb: 0.01, Trials: 1}); err == nil {
		t.Error("zero instructions accepted")
	}
}

func TestUpperLevelTableTampering(t *testing.T) {
	// PT-Guard protects all page-table levels (§IV-F). Corrupt the PML4
	// entry's line and confirm the walk aborts at level 0.
	w, err := NewWorld(true, false, 66)
	if err != nil {
		t.Fatal(err)
	}
	root := w.Tables.Root()
	// The victim's PML4 index: bits 47:39 of the VA.
	idx := attackIndex(VictimVBase, 0)
	ea := root + idx*8
	lineAddr := ea &^ uint64(pte.LineBytes-1)
	entryIdx := int(ea / 8 % pte.PTEsPerLine)
	w.Hammer.FlipLineBits(lineAddr, []int{entryIdx*64 + 15}) // PFN flip in PML4E
	res := w.Walker.Walk(root, VictimVBase)
	if !res.CheckFailed {
		t.Fatalf("PML4 tampering not detected: %+v", res)
	}
	if res.MemAccesses != 1 {
		t.Errorf("walk continued past the poisoned root: %d accesses", res.MemAccesses)
	}
}

func attackIndex(vaddr uint64, level int) uint64 {
	shift := uint(12 + 9*(3-level))
	return vaddr >> shift & 0x1FF
}

func TestDoubleSidedHammerOnPageTableRow(t *testing.T) {
	// Geometry-accurate attack: locate the DRAM row physically holding
	// the victim's leaf page table, double-side hammer its neighbours
	// past the threshold, and verify every poisoned PTE line in the row
	// is caught on its next walk.
	w, err := NewWorld(true, false, 88)
	if err != nil {
		t.Fatal(err)
	}
	// Re-arm the hammerer with a high flip probability so the row is
	// visibly corrupted within one hammering session.
	h, err := dram.NewHammerer(w.Dev, dram.HammerConfig{
		Threshold: dram.ThresholdDDR4,
		FlipProb:  0.25,
		Seed:      88,
	})
	if err != nil {
		t.Fatal(err)
	}
	ea, ok := w.Tables.LeafEntryAddr(VictimVBase)
	if !ok {
		t.Fatal("victim unmapped")
	}
	lineAddr := ea &^ uint64(pte.LineBytes-1)
	if flips := h.DoubleSided(lineAddr, dram.ThresholdDDR4); flips == 0 {
		t.Fatal("double-sided hammering induced no flips")
	}
	// Every protected PTE line stored in the hammered row must now fail
	// its walk check (or be absent, if the row held nothing there).
	rowBase, linesPerRow := w.Dev.RowBase(lineAddr)
	failed, present := 0, 0
	for c := 0; c < linesPerRow; c++ {
		addr := rowBase + uint64(c*pte.LineBytes)
		if _, isTable := w.Tables.LineAt(addr); !isTable {
			continue
		}
		present++
		if _, _, ok := w.Ctrl.ReadLine(addr, true); !ok {
			failed++
		}
	}
	if present == 0 {
		t.Fatal("hammered row held no table lines; geometry mapping broken")
	}
	// At p=0.25 per bit, a 512-bit line survives with probability ~1e-64.
	if failed != present {
		t.Errorf("only %d/%d poisoned table lines detected", failed, present)
	}
}

func TestDetectRemapRecoverWorkflow(t *testing.T) {
	// The full §IV-G OS response: PT-Guard detects flips in a table row,
	// the kernel migrates the table page to a fresh frame (quarantining
	// the vulnerable row), re-flushes it through the controller, and the
	// system resumes with intact translations.
	w, err := NewWorld(true, false, 99)
	if err != nil {
		t.Fatal(err)
	}
	ea, ok := w.Tables.LeafEntryAddr(VictimVBase)
	if !ok {
		t.Fatal("victim unmapped")
	}
	wantPFN, _ := w.Tables.Translate(VictimVBase)
	oldPage := ea &^ uint64(pte.PageSize-1)

	// Rowhammer corrupts the leaf table page; the walk detects it.
	w.Hammer.FlipLineBits(ea&^uint64(pte.LineBytes-1), []int{14, 30})
	if res := w.Walker.Walk(w.Tables.Root(), VictimVBase); !res.CheckFailed {
		t.Fatal("corruption not detected")
	}

	// OS response: migrate the page, re-flush ALL table lines (the moved
	// page and the updated parent), shoot down stale walker state.
	newPage, err := w.Tables.RemapTablePage(oldPage)
	if err != nil {
		t.Fatal(err)
	}
	if newPage == oldPage {
		t.Fatal("remap returned the same frame")
	}
	var flushErr error
	w.Tables.Lines(func(addr uint64, line pte.Line) {
		if _, werr := w.Ctrl.WriteLine(addr, line); werr != nil && flushErr == nil {
			flushErr = werr
		}
	})
	if flushErr != nil {
		t.Fatal(flushErr)
	}
	fresh, err := tlb.NewWalker(func(addr uint64) (pte.Line, bool) {
		line, _, ok := w.Ctrl.ReadLine(addr, true)
		return line, ok
	})
	if err != nil {
		t.Fatal(err)
	}
	res := fresh.Walk(w.Tables.Root(), VictimVBase)
	if res.CheckFailed || res.Fault {
		t.Fatalf("post-recovery walk failed: %+v", res)
	}
	if res.PFN != wantPFN {
		t.Errorf("post-recovery PFN = %#x, want %#x", res.PFN, wantPFN)
	}
	// Every other victim page must still translate too.
	for i := 0; i < VictimPages; i++ {
		va := VictimVBase + uint64(i)*pte.PageSize
		if r := fresh.Walk(w.Tables.Root(), va); r.CheckFailed || r.Fault {
			t.Fatalf("page %d broken after recovery: %+v", i, r)
		}
	}
}

func TestRemapValidation(t *testing.T) {
	w, err := NewWorld(false, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Tables.RemapTablePage(w.Tables.Root()); err == nil {
		t.Error("remapping the root accepted")
	}
	if _, err := w.Tables.RemapTablePage(0xDEAD000); err == nil {
		t.Error("remapping a non-table page accepted")
	}
}
