package virt

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"ptguard/internal/dram"
	"ptguard/internal/obs"
	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

// nestedWalkDigest pins every Host.Translate result and the walker2d.* and
// walker.* counters over a seeded corpus: each guard placement (and both
// layers with correction) × clean, targeted and random table flips, each
// walked from cold MMU caches and again with warm ones. The targeted flips
// cover a guest leaf PFN, a stage-2 leaf PFN, a guest leaf whose GPA has
// no stage-2 mapping (so the final stage-2 walk faults) and a guest PDE
// turned into a 2 MB leaf. A change to the 2-D walk that keeps its
// results must leave it unchanged.
const nestedWalkDigest = "6dbcce212256985b62072961e4c0a7a85ac46c818d81b9dcb8e78eb434256e12"

type walkRecord struct {
	Key string
	Tr  Translation
}

func TestNestedWalkPinned(t *testing.T) {
	const (
		tenants = 2
		pages   = 16
		seed    = 13
	)
	configs := []struct {
		placement  Placement
		correction bool
	}{
		{PlacementNone, false},
		{PlacementGuest, false},
		{PlacementStage2, false},
		{PlacementBoth, false},
		{PlacementBoth, true},
	}
	h := sha256.New()
	enc := json.NewEncoder(h)
	outcomes := map[string]int{}
	for _, cfg := range configs {
		name := fmt.Sprintf("%s/correct=%v", cfg.placement, cfg.correction)
		host, err := NewHost(Config{Tenants: tenants, PagesPerVM: pages, Placement: cfg.placement, Correction: cfg.correction, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		hammer, err := dram.NewHammerer(host.Dev, dram.HammerConfig{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		// walkAll translates every page of every tenant plus one unmapped
		// page, cold (MMU caches flushed) and then warm (TLB flushed only).
		walkAll := func(phase string) {
			for _, warmth := range []string{"cold", "warm"} {
				if warmth == "cold" {
					host.FlushAll()
				} else {
					host.TLB.Flush()
				}
				for vmid := 0; vmid < tenants; vmid++ {
					for i := 0; i <= pages; i++ {
						tr, terr := host.Translate(vmid, GuestVBase+uint64(i)*pte.PageSize)
						if terr != nil {
							t.Fatal(terr)
						}
						outcomes[outcome(tr)]++
						key := fmt.Sprintf("%s/%s/%s/vm%d/p%d", name, phase, warmth, vmid, i)
						if eerr := enc.Encode(walkRecord{key, tr}); eerr != nil {
							t.Fatal(eerr)
						}
					}
				}
				reg := obs.NewRegistry()
				host.Walker.PublishObs(reg)
				counters := map[string]uint64{}
				for k, v := range reg.Snapshot().Counters {
					if strings.HasPrefix(k, "walker.") || strings.HasPrefix(k, "walker2d.") {
						counters[k] = v
					}
				}
				if eerr := enc.Encode(counters); eerr != nil {
					t.Fatal(eerr)
				}
			}
		}
		walkAll("clean")

		// Targeted flips, in DRAM only (the shadow tables stay pristine).
		flipEntryBit := func(ea uint64, bit int) {
			entryIdx := int(ea / 8 % pte.PTEsPerLine)
			hammer.FlipLineBits(ea&^uint64(pte.LineBytes-1), []int{entryIdx*64 + bit})
		}
		guestEntry := func(vmid int, vaddr uint64, parent bool) uint64 {
			vm := host.VMs[vmid]
			gea, ok := vm.GuestPT.LeafEntryAddr(vaddr)
			if !ok {
				t.Fatal("guest vaddr not mapped")
			}
			if parent {
				if gea, ok = vm.GuestPT.ParentEntryAddr(gea &^ uint64(pte.PageSize-1)); !ok {
					t.Fatal("guest leaf table has no parent")
				}
			}
			hea, ok := vm.hostAddr(gea)
			if !ok {
				t.Fatal("guest table has no stage-2 mapping")
			}
			return hea
		}
		// Guest leaf PFN, low bit: a wrong but mapped GPA.
		flipEntryBit(guestEntry(1, GuestVBase, false), pte.PageShift)
		// Guest leaf PFN, bit 20 of the frame: a GPA stage 2 never maps.
		flipEntryBit(guestEntry(1, GuestVBase+2*pte.PageSize, false), pte.PageShift+20)
		// Stage-2 leaf PFN of a data page.
		gpfn, _ := host.VMs[1].GuestPT.Translate(GuestVBase + pte.PageSize)
		s2ea, ok := host.VMs[1].Stage2.LeafEntryAddr(gpfn << pte.PageShift)
		if !ok {
			t.Fatal("data gpa not stage-2 mapped")
		}
		flipEntryBit(s2ea, pte.PageShift)
		// Tenant 0's guest PDE gains the page-size bit: a 2 MB guest leaf.
		flipEntryBit(guestEntry(0, GuestVBase, true), pte.BitHugePage)
		walkAll("targeted")

		// Random flips over both layers' table lines.
		var lines []uint64
		for vmid := 0; vmid < tenants; vmid++ {
			g, _ := host.GuestTableLines(vmid)
			s, _ := host.Stage2TableLines(vmid)
			lines = append(lines, g...)
			lines = append(lines, s...)
		}
		rng := stats.NewRNG(seed)
		for round := 0; round < 3; round++ {
			for i := 0; i < 6; i++ {
				addr := lines[rng.Uint64()%uint64(len(lines))]
				hammer.FlipLineBits(addr, []int{int(rng.Uint64() % (pte.LineBytes * 8))})
			}
			walkAll(fmt.Sprintf("random%d", round))
		}
	}
	// The corpus must reach every outcome the digest is meant to pin.
	for _, want := range []string{"ok", "fault/guest", "fault/stage2", "check/guest", "check/stage2"} {
		if outcomes[want] == 0 {
			t.Errorf("corpus has no %s walk (outcomes %v)", want, outcomes)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != nestedWalkDigest {
		t.Errorf("2-D walk results changed: digest %s, want %s", got, nestedWalkDigest)
	}
}

// outcome classifies a translation for the corpus coverage check.
func outcome(tr Translation) string {
	layer := "guest"
	if tr.Stage2 {
		layer = "stage2"
	}
	switch {
	case tr.CheckFailed:
		return "check/" + layer
	case tr.Fault:
		return "fault/" + layer
	case tr.OK:
		return "ok"
	}
	return "none"
}
