// Package attack implements the Rowhammer exploit scenarios of §II-C and
// §IV-G end to end against the simulated memory system: privilege
// escalation through PFN flips, metadata (user/supervisor, W^X, MPK) flips,
// the known-plaintext MAC-harvesting attack, and the CTB-overflow
// denial-of-service, each evaluated with and without PT-Guard.
package attack

import (
	"errors"
	"fmt"
	"math/bits"

	"ptguard/internal/core"
	"ptguard/internal/dram"
	"ptguard/internal/memctrl"
	"ptguard/internal/obs"
	"ptguard/internal/ostable"
	"ptguard/internal/pte"
	"ptguard/internal/stats"
	"ptguard/internal/tlb"
)

// VictimPages is the size of the victim mapping each world sets up.
const VictimPages = 64

// VictimVBase is the victim region's virtual base.
const VictimVBase = 0x40_0000_0000

// World is a self-contained attack sandbox: a DRAM device with a victim
// process's page tables flushed through a (possibly PT-Guard-equipped)
// memory controller, plus a hammerer aimed at it.
type World struct {
	Dev    *dram.Device
	Ctrl   *memctrl.Controller
	Alloc  *ostable.FrameAllocator
	Tables *ostable.PageTables
	Hammer *dram.Hammerer
	Walker *tlb.Walker

	guard *core.Guard
}

// WorldConfig parameterises NewWorldWith beyond the NewWorld defaults.
type WorldConfig struct {
	// Protected selects PT-Guard at the memory controller.
	Protected bool
	// Correction enables the §VI correction engine (implies Protected).
	Correction bool
	// Seed feeds the key and fault RNGs.
	Seed uint64
	// Hammer overrides the disturbance model; a zero Seed inherits Seed,
	// zero Threshold/FlipProb keep the dram defaults. Mitigation
	// campaigns use this to scale the flip threshold down to tractable
	// activation counts.
	Hammer dram.HammerConfig
}

// NewWorld builds the sandbox. protected selects PT-Guard at the
// controller; correction enables the §VI engine.
func NewWorld(protected, correction bool, seed uint64) (*World, error) {
	return NewWorldWith(WorldConfig{Protected: protected, Correction: correction, Seed: seed})
}

// NewWorldWith builds the sandbox from an explicit configuration.
func NewWorldWith(cfg WorldConfig) (*World, error) {
	protected, correction, seed := cfg.Protected, cfg.Correction, cfg.Seed
	dev, err := dram.NewDevice(dram.Geometry{}, dram.Timing{})
	if err != nil {
		return nil, err
	}
	var guard *core.Guard
	if protected {
		gcfg, gerr := core.SeededConfig(stats.NewRNG(seed^0x6B65), correction)
		if gerr != nil {
			return nil, gerr
		}
		if guard, err = core.NewGuard(gcfg); err != nil {
			return nil, err
		}
	}
	ctrl, err := memctrl.New(dev, guard, 0)
	if err != nil {
		return nil, err
	}
	alloc, err := ostable.NewFrameAllocator(4096, dev.Geometry().Capacity()/pte.PageSize-4096)
	if err != nil {
		return nil, err
	}
	tables, err := ostable.NewPageTables(alloc)
	if err != nil {
		return nil, err
	}
	flags := pte.Entry(0).SetBit(pte.BitWritable, true).SetBit(pte.BitUserAccessible, true)
	for i := 0; i < VictimPages; i++ {
		pfn, aerr := alloc.AllocFrame()
		if aerr != nil {
			return nil, aerr
		}
		if merr := tables.Map(VictimVBase+uint64(i)*pte.PageSize, pfn, flags); merr != nil {
			return nil, merr
		}
	}
	var flushAddrs []uint64
	var flushLines []pte.Line
	tables.Lines(func(addr uint64, line pte.Line) {
		flushAddrs = append(flushAddrs, addr)
		flushLines = append(flushLines, line)
	})
	if _, werr := ctrl.WriteLinesBatch(flushAddrs, flushLines); werr != nil {
		return nil, werr
	}
	hcfg := cfg.Hammer
	if hcfg.Seed == 0 {
		hcfg.Seed = seed
	}
	hammer, err := dram.NewHammerer(dev, hcfg)
	if err != nil {
		return nil, err
	}
	w := &World{Dev: dev, Ctrl: ctrl, Alloc: alloc, Tables: tables, Hammer: hammer, guard: guard}
	w.Walker, err = tlb.NewWalker(func(addr uint64) (pte.Line, bool) {
		line, _, ok := ctrl.ReadLine(addr, true)
		return line, ok
	})
	if err != nil {
		return nil, err
	}
	return w, nil
}

// Outcome summarises one attack attempt.
type Outcome struct {
	// Detected reports PT-Guard raised PTECheckFailed (or the correction
	// engine repaired the line, also thwarting the exploit).
	Detected bool
	// ExploitSucceeded reports the attacker obtained the tampered
	// translation or permission.
	ExploitSucceeded bool
	// Description explains what happened.
	Description string
}

// PrivilegeEscalation mounts the Fig. 1/Fig. 3 exploit: flip PFN bits in
// the victim's own leaf PTE so it points at a page-table page, giving the
// attacker read/write access to PTEs.
func (w *World) PrivilegeEscalation(victimVaddr uint64) (Outcome, error) {
	ea, ok := w.Tables.LeafEntryAddr(victimVaddr)
	if !ok {
		return Outcome{}, fmt.Errorf("attack: vaddr %#x not mapped", victimVaddr)
	}
	origPFN, ok := w.Tables.Translate(victimVaddr)
	if !ok {
		return Outcome{}, errors.New("attack: victim translation missing")
	}
	// Target: the leaf page-table page itself (self-referencing PTE).
	targetPFN := ea >> pte.PageShift
	diff := (origPFN ^ targetPFN) & 0xFFFFFFF
	var flipBits []int
	entryIdx := int(ea / 8 % pte.PTEsPerLine)
	for diff != 0 {
		b := bits.TrailingZeros64(diff)
		diff &= diff - 1
		flipBits = append(flipBits, entryIdx*64+pte.PageShift+b)
	}
	if len(flipBits) == 0 {
		return Outcome{}, errors.New("attack: victim already self-referencing")
	}
	lineAddr := ea &^ uint64(pte.LineBytes-1)
	w.Hammer.FlipLineBits(lineAddr, flipBits)

	res := w.Walker.Walk(w.Tables.Root(), victimVaddr)
	switch {
	case res.CheckFailed:
		return Outcome{Detected: true, Description: "PTECheckFailed raised on the poisoned walk"}, nil
	case res.Fault:
		return Outcome{Description: "walk faulted; exploit failed without detection"}, nil
	case res.PFN == targetPFN:
		return Outcome{
			ExploitSucceeded: true,
			Description:      "translation now maps a page-table page: attacker controls PTEs",
		}, nil
	case res.PFN == origPFN:
		return Outcome{
			Detected:    w.guard != nil,
			Description: "original translation served (flips corrected)",
		}, nil
	default:
		return Outcome{Description: fmt.Sprintf("unexpected PFN %#x", res.PFN)}, nil
	}
}

// MetadataAttack flips a non-PFN PTE field — e.g. the user-accessible bit
// on a supervisor page, or NX to make injected stack code executable
// (§II-C) — and checks whether the tampered permission is consumed.
func (w *World) MetadataAttack(victimVaddr uint64, bit int) (Outcome, error) {
	ea, ok := w.Tables.LeafEntryAddr(victimVaddr)
	if !ok {
		return Outcome{}, fmt.Errorf("attack: vaddr %#x not mapped", victimVaddr)
	}
	entryIdx := int(ea / 8 % pte.PTEsPerLine)
	lineAddr := ea &^ uint64(pte.LineBytes-1)
	before := w.Dev.ReadLine(lineAddr)[entryIdx]
	w.Hammer.FlipLineBits(lineAddr, []int{entryIdx*64 + bit})

	res := w.Walker.Walk(w.Tables.Root(), victimVaddr)
	switch {
	case res.CheckFailed:
		return Outcome{Detected: true, Description: "metadata flip detected on walk"}, nil
	case res.Fault:
		return Outcome{Description: "walk faulted"}, nil
	case res.Entry.Bit(bit) != before.Bit(bit):
		return Outcome{
			ExploitSucceeded: true,
			Description:      fmt.Sprintf("tampered bit %d consumed by the walker", bit),
		}, nil
	default:
		return Outcome{
			Detected:    w.guard != nil,
			Description: "original metadata served (flips corrected)",
		}, nil
	}
}

// Guard exposes the world's PT-Guard instance (nil when unprotected).
func (w *World) Guard() *core.Guard { return w.guard }

// Observe attaches the observability subsystem to the sandbox's memory
// controller (and through it the guard and DRAM device), so hammering and
// verification emit trace events and PublishObs can snapshot the counters.
func (w *World) Observe(o *obs.Observer) { w.Ctrl.SetObserver(o) }

// PublishObs feeds the sandbox's controller/guard/device counters into the
// metric registry (a nil registry is a no-op).
func (w *World) PublishObs(r *obs.Registry) {
	w.Ctrl.PublishObs(r)
	w.Walker.PublishObs(r)
}

// Shootdown models the TLB/MMU-cache shootdown the OS performs after
// modifying page tables (e.g. the §IV-G row-remap): the walker's cached
// upper-level entries are discarded so subsequent walks re-read memory.
func (w *World) Shootdown() error {
	walker, err := tlb.NewWalker(func(addr uint64) (pte.Line, bool) {
		line, _, ok := w.Ctrl.ReadLine(addr, true)
		return line, ok
	})
	if err != nil {
		return err
	}
	w.Walker = walker
	return nil
}
