// Recovery demo: the full operational loop around a detection event —
// Rowhammer corrupts a page-table row, PT-Guard raises PTECheckFailed, and
// the OS responds per §IV-G/§VII-B: migrate the table page off the
// vulnerable row, quarantine the row, re-protect the moved lines, and (for
// CTB exhaustion) re-key the whole memory.
//
//	go run ./examples/recovery
package main

import (
	"errors"
	"fmt"
	"log"

	"ptguard/internal/attack"
	"ptguard/internal/core"
	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	w, err := attack.NewWorld(true, false, 2026)
	if err != nil {
		return err
	}
	fmt.Println("1. Rowhammer corrupts the victim's leaf page-table row")
	ea, _ := w.Tables.LeafEntryAddr(attack.VictimVBase)
	oldPage := ea &^ uint64(pte.PageSize-1)
	w.Hammer.FlipLineBits(ea&^uint64(pte.LineBytes-1), []int{14, 30})

	res := w.Walker.Walk(w.Tables.Root(), attack.VictimVBase)
	fmt.Printf("   walk: CheckFailed=%t — exception delivered to the OS\n\n", res.CheckFailed)

	fmt.Println("2. OS migrates the table page off the vulnerable row (§IV-G)")
	newPage, err := w.Tables.RemapTablePage(oldPage)
	if err != nil {
		return err
	}
	w.Tables.Lines(func(addr uint64, line pte.Line) {
		_, _ = w.Ctrl.WriteLine(addr, line)
	})
	if err := w.Shootdown(); err != nil { // INVLPG + MMU-cache flush
		return err
	}
	fmt.Printf("   page %#x -> %#x, poisoned frame quarantined, TLB shot down\n\n", oldPage, newPage)

	res = w.Walker.Walk(w.Tables.Root(), attack.VictimVBase)
	fmt.Printf("3. Translation restored: PFN=%#x (fault=%t, checkFailed=%t)\n\n",
		res.PFN, res.Fault, res.CheckFailed)

	fmt.Println("4. Meanwhile, a known-plaintext attacker floods the CTB (§VII-B)")
	_, err = w.CTBOverflowDoS(7)
	if !errors.Is(err, core.ErrCTBFull) {
		return fmt.Errorf("expected CTB overflow, got %v", err)
	}
	fmt.Printf("   CTB full (%d entries) — re-key required\n\n", w.Guard().CTBLen())

	fmt.Println("5. OS performs the full-memory re-key sweep")
	next, err := core.SeededConfig(stats.NewRNG(0xFEE1), false)
	if err != nil {
		return err
	}
	st, err := w.Ctrl.Rekey(next.Key)
	if err != nil {
		return err
	}
	fmt.Printf("   scanned %d lines, re-MACed %d protected lines, CTB now %d entries\n\n",
		st.LinesScanned, st.Remacced, w.Ctrl.Guard().CTBLen())

	if err := w.Shootdown(); err != nil {
		return err
	}
	res = w.Walker.Walk(w.Tables.Root(), attack.VictimVBase+pte.PageSize)
	fmt.Printf("6. System healthy under the new key: walk ok=%t\n", !res.CheckFailed && !res.Fault)
	return nil
}
