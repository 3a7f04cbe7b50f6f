package sim

import "ptguard/internal/pte"

// RecoveryStats counts the graceful-degradation path of §IV-G: integrity
// failures the correction engine could not repair, handed to the OS.
type RecoveryStats struct {
	// Raised counts uncorrectable integrity failures handed to the OS.
	Raised uint64
	// Rebuilds counts table-line rewrites from authoritative OS state.
	Rebuilds uint64
	// Remaps counts table-page migrations (vulnerable row quarantined).
	Remaps uint64
	// Recovered counts raised failures that ended with a verified line.
	Recovered uint64
	// Fatal counts raised failures recovery could not resolve: the
	// simulated equivalent of a kernel panic.
	Fatal uint64
}

// RecoveryStats returns a snapshot of the OS-recovery counters.
func (s *System) RecoveryStats() RecoveryStats { return s.recovery }

// recoveryRetries bounds the in-place rebuild attempts per failure.
const recoveryRetries = 3

func (s *System) remapAfter() int {
	if s.cfg.RemapAfter > 0 {
		return s.cfg.RemapAfter
	}
	return 2
}

// recoverPTELine is the OS response to an uncorrectable integrity failure
// on the page-table line at addr (§IV-G): the kernel owns the authoritative
// mapping state, so it rewrites the victim line through the memory
// controller (which re-embeds a fresh MAC) and re-reads it under
// verification, with bounded retry. A page that keeps raising failures is
// escalated: its whole table page migrates to a fresh frame and the
// vulnerable row is quarantined.
//
// The caches above the controller were already invalidated by the caller;
// the returned line, when ok, is verified and safe to consume.
func (s *System) recoverPTELine(addr uint64) (pte.Line, bool) {
	s.recovery.Raised++
	s.obs.Emit("recovery", "raised", 0)
	page := addr &^ uint64(pte.PageSize-1)
	s.pageFailures[page]++

	if s.pageFailures[page] >= s.remapAfter() {
		if line, ok := s.remapVictimPage(addr); ok {
			s.recovery.Recovered++
			return line, true
		}
		// Migration impossible (root table or out of frames): fall
		// through to in-place rebuild.
	}

	for attempt := 0; attempt < recoveryRetries; attempt++ {
		arch, ok := s.tables.LineAt(addr)
		if !ok {
			// Not a table line of this process: the OS has no
			// authoritative copy to rebuild from.
			break
		}
		if _, err := s.ctrl.WriteLine(addr, arch); err != nil {
			continue
		}
		s.recovery.Rebuilds++
		s.obs.Emit("recovery", "rebuild", 0)
		line, lat, ok := s.ctrl.ReadLine(addr, true)
		s.core.StallMemory(lat)
		if !ok {
			// The line failed verification again (e.g. the row is
			// still under active hammering); retry.
			continue
		}
		s.cleanPTE[addr] = line
		s.recovery.Recovered++
		return line, true
	}
	s.recovery.Fatal++
	s.obs.Emit("recovery", "fatal", 0)
	return pte.Line{}, false
}

// remapVictimPage migrates the table page containing addr to a fresh frame
// (§IV-G), re-flushes the moved lines and the repointed parent entry
// through the controller, and shoots down every stale translation
// structure. It returns the verified content of addr's relocated line.
func (s *System) remapVictimPage(addr uint64) (pte.Line, bool) {
	oldPage := addr &^ uint64(pte.PageSize-1)
	if _, ok := s.tables.ParentEntryAddr(oldPage); !ok {
		return pte.Line{}, false // the root has no parent to repoint
	}
	newPage, err := s.tables.RemapTablePage(oldPage)
	if err != nil {
		return pte.Line{}, false
	}
	s.recovery.Remaps++
	s.obs.Emit("recovery", "remap", 0)
	delete(s.pageFailures, oldPage)

	// Flush the migrated page and invalidate the quarantined one.
	writeOK := true
	s.tables.PageLines(newPage, func(a uint64, line pte.Line) {
		if _, werr := s.ctrl.WriteLine(a, line); werr != nil {
			writeOK = false
		}
	})
	for off := uint64(0); off < pte.PageSize; off += pte.LineBytes {
		old := oldPage + off
		s.l2.Invalidate(old)
		s.l3.Invalidate(old)
		delete(s.cleanPTE, old)
	}
	// The parent entry changed PFN: rewrite its line and drop cached
	// copies so the next walk sees the new pointer.
	if parentEA, ok := s.tables.ParentEntryAddr(newPage); ok {
		parentLine := parentEA &^ uint64(pte.LineBytes-1)
		if arch, ok := s.tables.LineAt(parentLine); ok {
			if _, werr := s.ctrl.WriteLine(parentLine, arch); werr != nil {
				writeOK = false
			}
		}
		s.l2.Invalidate(parentLine)
		s.l3.Invalidate(parentLine)
		delete(s.cleanPTE, parentLine)
		s.walker.InvalidateEntry(parentEA)
	}
	// Translations cached anywhere may reference the old frame.
	s.tlb.Flush()
	s.walker.Flush()
	if !writeOK {
		return pte.Line{}, false
	}

	// Serve the relocated line under verification.
	newAddr := newPage + (addr - oldPage)
	line, lat, ok := s.ctrl.ReadLine(newAddr, true)
	s.core.StallMemory(lat)
	if !ok {
		return pte.Line{}, false
	}
	s.cleanPTE[newAddr] = line
	return line, true
}
