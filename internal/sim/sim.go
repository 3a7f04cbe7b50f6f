// Package sim wires the substrates into the paper's full-system simulation
// (§III, Table III): an in-order 3 GHz x86_64 core with a 64-entry TLB, MMU
// cache, three cache levels, and a DDR4 channel behind a PT-Guard-equipped
// memory controller. It runs the synthetic SPEC/GAP workloads and reports
// the normalized IPC and LLC MPKI of Fig. 6/7 and the multicore numbers of
// §VII-C.
package sim

import (
	"errors"
	"fmt"

	"ptguard/internal/cache"
	"ptguard/internal/core"
	"ptguard/internal/cpu"
	"ptguard/internal/dram"
	"ptguard/internal/memctrl"
	"ptguard/internal/obs"
	"ptguard/internal/ostable"
	"ptguard/internal/pte"
	"ptguard/internal/stats"
	"ptguard/internal/tlb"
	"ptguard/internal/workload"
)

// Mode selects the protection configuration under test.
type Mode int

// Protection modes.
const (
	// Baseline is the unprotected system.
	Baseline Mode = iota + 1
	// PTGuard is the base design (§IV): MAC check on every DRAM read.
	PTGuard
	// PTGuardOptimized adds the identifier and MAC-zero optimizations
	// (§V): MAC checks only on walks and identified lines.
	PTGuardOptimized
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Baseline:
		return "baseline"
	case PTGuard:
		return "ptguard"
	case PTGuardOptimized:
		return "ptguard-opt"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// check returns an error unless m is Baseline, PTGuard or
// PTGuardOptimized.
func (m Mode) check() error {
	if m < Baseline || m > PTGuardOptimized {
		return fmt.Errorf("sim: unknown mode %d", int(m))
	}
	return nil
}

// CheckModes returns an error for a mode other than Baseline, PTGuard and
// PTGuardOptimized, and for a mode listed twice.
func CheckModes(modes []Mode) error {
	var seen [PTGuardOptimized + 1]bool
	for _, m := range modes {
		if err := m.check(); err != nil {
			return err
		}
		if seen[m] {
			return fmt.Errorf("sim: mode %s listed twice", m)
		}
		seen[m] = true
	}
	return nil
}

// Cache hit latencies in cycles (typical for the Table III hierarchy).
const (
	latL1 = 4
	latL2 = 12
	latL3 = 40
)

// Config parameterises one simulated system.
type Config struct {
	// Mode selects baseline or a PT-Guard variant.
	Mode Mode
	// MACLatencyCycles overrides the 10-cycle default (Fig. 7 sweeps it).
	MACLatencyCycles int
	// Core selects the core model; zero value selects the in-order core.
	Core cpu.Config
	// ContentionCycles adds shared-channel queueing delay (§VII-C).
	ContentionCycles int
	// Seed drives all stochastic components.
	Seed uint64
	// HugePages maps the workload with 2 MB pages instead of 4 KB. §III
	// argues larger pages only *reduce* PT-Guard's slowdown (fewer
	// page-table walks); this knob verifies that claim.
	HugePages bool
	// TraceWalks records the PTE line addresses fetched from DRAM during
	// page-table walks, the paper's Fig. 9 trace-extraction methodology
	// (§VI-F).
	TraceWalks bool
	// ChurnEvery, when positive, remaps one workload page to a fresh
	// frame every N instructions: live kernel page-table writes flowing
	// through the controller mid-run (the OS PTE-access path the paper's
	// full-system simulation captures, §VII-C).
	ChurnEvery int
	// EnableRecovery turns on the §IV-G OS response: when a walk hits an
	// uncorrectable integrity failure, the kernel rebuilds the victim
	// table line from its authoritative mapping state instead of
	// panicking.
	EnableRecovery bool
	// RemapAfter is the number of integrity failures one table page may
	// raise before recovery escalates to migrating the page to a fresh
	// frame (quarantining the vulnerable row, §IV-G); 0 selects 2.
	RemapAfter int
	// Obs, when set, collects metrics, trace events, and periodic
	// time-series snapshots for this run. Nil disables observability with
	// zero overhead.
	Obs *obs.Observer
}

// System is one single-core simulated machine running one workload.
// Not safe for concurrent use.
type System struct {
	cfg    Config
	core   *cpu.Core
	tlb    *tlb.TLB
	walker *tlb.Walker
	l1d    *cache.Cache
	l2     *cache.Cache
	l3     *cache.Cache
	ctrl   *memctrl.Controller
	dev    *dram.Device
	alloc  *ostable.FrameAllocator
	tables *ostable.PageTables
	gen    *workload.Generator
	rng    *stats.RNG

	vbase      uint64
	checkFails uint64

	// recovery tracks the §IV-G OS-rebuild path; pageFailures counts
	// integrity failures per table page to drive the remap escalation.
	recovery     RecoveryStats
	pageFailures map[uint64]int

	// cleanPTE mirrors the cache contents for page-table lines: caches
	// hold the *stripped* image the controller forwarded, not the
	// MAC-embedded DRAM image.
	cleanPTE map[uint64]pte.Line

	// walkTrace records DRAM-level PTE line fetches when TraceWalks is on.
	walkTrace []uint64

	sinceChurn int
	churns     uint64

	// obs collects metrics/traces/series when non-nil (Config.Obs).
	obs *obs.Observer

	// pipe, when set, serves the memory side, and any further memory
	// sides, on their own goroutine during each Run (pipeline.go).
	pipe *pipeline
}

// NewSystem builds a system for one workload profile. The workload's
// footprint is mapped through real 4-level page tables whose lines are
// flushed to DRAM through the (possibly guarded) memory controller.
func NewSystem(cfg Config, prof workload.Profile) (*System, error) {
	ctrl, err := newController(cfg)
	if err != nil {
		return nil, err
	}
	totalFrames := ctrl.Device().Geometry().Capacity() / pte.PageSize
	alloc, err := ostable.NewFrameAllocator(4096, totalFrames-4096)
	if err != nil {
		return nil, err
	}
	return newSystemShared(cfg, prof, ctrl.Device(), ctrl, alloc, 0)
}

// newController builds a DRAM device and, in front of it, a controller
// guarded as cfg.Mode asks.
func newController(cfg Config) (*memctrl.Controller, error) {
	if err := cfg.Mode.check(); err != nil {
		return nil, err
	}
	dev, err := dram.NewDevice(dram.Geometry{}, dram.Timing{})
	if err != nil {
		return nil, err
	}
	guard, err := buildGuard(cfg)
	if err != nil {
		return nil, err
	}
	return memctrl.New(dev, guard, cfg.ContentionCycles)
}

// newSystemShared builds a per-core system over shared DRAM, controller and
// frame allocator (the multicore configuration of §VII-C).
func newSystemShared(cfg Config, prof workload.Profile, dev *dram.Device, ctrl *memctrl.Controller, alloc *ostable.FrameAllocator, coreIdx int) (*System, error) {
	coreModel, err := cpu.New(cfg.Core)
	if err != nil {
		return nil, err
	}
	tl, err := tlb.New(0)
	if err != nil {
		return nil, err
	}
	mkCache := func(c cache.Config) *cache.Cache {
		cc, cerr := cache.New(c)
		if cerr != nil && err == nil {
			err = cerr
		}
		return cc
	}
	s := &System{
		cfg:          cfg,
		core:         coreModel,
		tlb:          tl,
		l1d:          mkCache(cache.L1Config),
		l2:           mkCache(cache.L2Config),
		l3:           mkCache(cache.L3Config),
		ctrl:         ctrl,
		dev:          dev,
		alloc:        alloc,
		rng:          stats.NewRNG(cfg.Seed ^ 0xD1CE),
		vbase:        0x10_0000_0000 + uint64(coreIdx)<<40,
		cleanPTE:     make(map[uint64]pte.Line),
		pageFailures: make(map[uint64]int),
		obs:          cfg.Obs,
	}
	if err != nil {
		return nil, err
	}
	if s.obs != nil {
		// Events are stamped with this core's cycle count. With a shared
		// controller (multicore), the last core built owns the clock.
		s.obs.SetClock(func() uint64 { return uint64(coreModel.Cycles()) })
		ctrl.SetObserver(s.obs)
	}
	s.walker, err = tlb.NewWalker(s.readPTELine)
	if err != nil {
		return nil, err
	}
	if err := s.attachWorkload(prof); err != nil {
		return nil, err
	}
	return s, nil
}

func buildGuard(cfg Config) (*core.Guard, error) {
	if cfg.Mode == Baseline {
		return nil, nil
	}
	kr := stats.NewRNG(cfg.Seed ^ 0x5EC)
	gcfg, err := core.SeededConfig(kr, false)
	if err != nil {
		return nil, err
	}
	gcfg.MACLatencyCycles = cfg.MACLatencyCycles
	if cfg.Mode == PTGuardOptimized {
		gcfg.OptIdentifier = true
		gcfg.Identifier = kr.Uint64() & (1<<56 - 1)
		gcfg.OptZeroMAC = true
	}
	return core.NewGuard(gcfg)
}

// attachWorkload maps the workload footprint with buddy-allocated clusters,
// one MapRange per cluster, and flushes the page tables to DRAM through the
// controller, embedding MACs in every table line under the PT-Guard modes.
// A machine's tables are never freed, so its data frames are not recorded
// with PageTables.Own.
func (s *System) attachWorkload(prof workload.Profile) error {
	gen, err := workload.NewGenerator(prof, s.vbase, s.cfg.Seed)
	if err != nil {
		return err
	}
	s.gen = gen
	s.tables, err = ostable.NewPageTables(s.alloc)
	if err != nil {
		return err
	}
	flags := pte.Entry(0).
		SetBit(pte.BitWritable, true).
		SetBit(pte.BitUserAccessible, true).
		SetBit(pte.BitNX, true)
	vaddr := s.vbase
	remaining := prof.FootprintPages
	if s.cfg.HugePages {
		if err := s.mapHuge(remaining, flags); err != nil {
			return err
		}
		remaining = 0
	}
	for remaining > 0 {
		cluster := 16
		if cluster > remaining {
			cluster = remaining
		}
		pfn, aerr := s.alloc.AllocContiguous(cluster)
		if aerr != nil {
			return aerr
		}
		if merr := s.tables.MapRange(vaddr, pfn, cluster, flags); merr != nil {
			return merr
		}
		vaddr += uint64(cluster) * pte.PageSize
		remaining -= cluster
	}
	return s.flushTables(s.ctrl)
}

// flushTables writes every table line to DRAM through c in ascending
// address order, one table page per WriteLinesBatch call, so the protected
// lines are stored to be sealed on first read and most table MACs are never
// computed on the host. Like a per-line WriteLine loop, it writes past an
// error and returns the first one.
func (s *System) flushTables(c *memctrl.Controller) error {
	var (
		addrs [pte.PageSize / pte.LineBytes]uint64
		lines [len(addrs)]pte.Line
		err   error
	)
	for _, base := range s.tables.TablePages() {
		n := 0
		s.tables.PageLines(base, func(addr uint64, line pte.Line) {
			addrs[n], lines[n] = addr, line
			n++
		})
		if _, werr := c.WriteLinesBatch(addrs[:n], lines[:n]); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

// mapHuge backs the footprint with 2 MB pages. Huge frames come from
// maximal buddy blocks (order 9 = 512 frames).
func (s *System) mapHuge(pages int, flags pte.Entry) error {
	framesPerHuge := ostable.HugePageSize / pte.PageSize
	vaddr := s.vbase
	for covered := 0; covered < pages; covered += framesPerHuge {
		pfn, err := s.alloc.AllocOrder(9)
		if err != nil {
			return err
		}
		if err := s.tables.MapHuge(vaddr, pfn, flags); err != nil {
			return err
		}
		vaddr += ostable.HugePageSize
	}
	return nil
}

// readPTELine is the walker's path into the memory system: page-table lines
// are looked up in L2 and L3 (walks bypass L1 as on real cores) and fetched
// from DRAM with the isPTE tag set, which makes the controller verify them.
func (s *System) readPTELine(addr uint64) (pte.Line, bool) {
	res2 := s.l2.Access(addr, false)
	if res2.Hit {
		s.core.StallMemory(latL2)
		if line, ok := s.cleanPTE[addr]; ok {
			return line, true
		}
	} else if res2.WBValid {
		s.writeback(res2.Writeback)
	}
	if !res2.Hit {
		res3 := s.l3.Access(addr, false)
		if res3.Hit {
			s.core.StallMemory(latL2 + latL3)
			if line, ok := s.cleanPTE[addr]; ok {
				return line, true
			}
		} else if res3.WBValid {
			s.writeback(res3.Writeback)
		}
	}
	if s.cfg.TraceWalks {
		s.walkTrace = append(s.walkTrace, addr)
	}
	if s.pipe != nil {
		line, ok := s.pipelinedWalk(addr)
		s.core.StallMemory(latL2 + latL3)
		if ok {
			s.cleanPTE[addr] = line
		}
		return line, ok
	}
	line, lat, ok := s.ctrl.ReadLine(addr, true)
	s.core.StallMemory(latL2 + latL3 + lat)
	if !ok {
		s.checkFails++
		// Do not install the faulty line (§IV-F).
		s.l2.Invalidate(addr)
		s.l3.Invalidate(addr)
		delete(s.cleanPTE, addr)
		if s.cfg.EnableRecovery {
			return s.recoverPTELine(addr)
		}
		return pte.Line{}, false
	}
	s.cleanPTE[addr] = line
	return line, true
}

// dataLineFor synthesises stable pseudo-random content for a data line:
// roughly one line in ten is all-zero (zero pages are common), the rest
// carry dense payloads that never match PT-Guard's write pattern.
func (s *System) dataLineFor(addr uint64) pte.Line {
	h := addr * 0x9E3779B97F4A7C15
	if h%10 == 0 {
		return pte.Line{}
	}
	var line pte.Line
	for i := range line {
		h ^= h >> 33
		h *= 0xFF51AFD7ED558CCD
		line[i] = pte.Entry(h)
	}
	return line
}

// accessData sends one data reference through the hierarchy, charging all
// stall cycles to the core.
func (s *System) accessData(ref workload.Ref) {
	vpn := ref.VAddr >> pte.PageShift
	pfn, ok := s.tlb.Lookup(vpn)
	if !ok {
		walkStart := s.core.Cycles()
		res := s.walker.Walk(s.tables.Root(), ref.VAddr)
		if s.obs != nil {
			s.obs.EmitAt("mmu", "walk", uint64(walkStart),
				uint64(s.core.Cycles()-walkStart))
		}
		if res.CheckFailed || res.Fault {
			// A faulted translation cannot proceed; the exception
			// path is outside the timing loop.
			return
		}
		pfn = res.PFN
		if res.Entry.Bit(pte.BitHugePage) {
			// One TLB entry covers the whole 2 MB page.
			base := vpn &^ 0x1FF
			s.tlb.InsertSpan(base, res.PFN&^0x1FF, 512)
		} else {
			s.tlb.Insert(vpn, pfn)
		}
	}
	paddr := pfn<<pte.PageShift | ref.VAddr&(pte.PageSize-1)

	res1 := s.l1d.Access(paddr, ref.Write)
	if res1.Hit {
		s.core.StallMemory(latL1)
		return
	}
	if res1.WBValid {
		// Dirty L1 victim: posted write to memory through the guard.
		s.writeback(res1.Writeback)
	}
	if res := s.l2.Access(paddr, false); res.Hit {
		s.core.StallMemory(latL1 + latL2)
		return
	} else if res.WBValid {
		s.writeback(res.Writeback)
	}
	if res := s.l3.Access(paddr, false); res.Hit {
		s.core.StallMemory(latL1 + latL2 + latL3)
		return
	} else if res.WBValid {
		s.writeback(res.Writeback)
	}
	if s.pipe != nil {
		s.pipe.push(reqData, paddr)
		s.core.StallMemory(latL1 + latL2 + latL3)
		return
	}
	s.core.StallMemory(latL1 + latL2 + latL3 + s.readData(s.ctrl, paddr, &s.checkFails))
}

// readData reads the data line at paddr from DRAM through c and returns the
// latency. On first touch it materialises the line's pre-existing content
// through c (not charged to the core). Each failed access counts in fails.
func (s *System) readData(c *memctrl.Controller, paddr uint64, fails *uint64) int {
	if !c.Device().Contains(paddr) {
		s.writeData(c, paddr, fails)
	}
	_, lat, ok := c.ReadLine(paddr, false)
	if !ok {
		*fails++
	}
	return lat
}

// writeback posts a dirty line to memory; the core does not stall.
func (s *System) writeback(addr uint64) {
	if s.pipe != nil {
		s.pipe.push(reqWriteback, addr)
		return
	}
	s.writeData(s.ctrl, addr, &s.checkFails)
}

// writeData writes the data line at addr through c, counting a failed
// write in fails.
func (s *System) writeData(c *memctrl.Controller, addr uint64, fails *uint64) {
	if _, err := c.WriteLine(addr, s.dataLineFor(addr)); err != nil {
		*fails++
	}
}

// Result summarises one run.
type Result struct {
	Workload     string
	Mode         Mode
	Instructions uint64
	Cycles       float64
	IPC          float64
	LLCMPKI      float64
	TLBMissRate  float64
	PageWalks    uint64
	CheckFails   uint64
	Churns       uint64
	Recovery     RecoveryStats
	Guard        core.Counters
	Ctrl         memctrl.Stats
}

// step executes one instruction.
func (s *System) step() {
	s.core.Retire(1)
	if s.gen.IsMemRef() {
		s.accessData(s.gen.Next())
	}
	if s.cfg.ChurnEvery > 0 {
		s.sinceChurn++
		if s.sinceChurn >= s.cfg.ChurnEvery {
			s.sinceChurn = 0
			s.churnOnePage()
		}
	}
}

// churnOnePage models kernel page migration: one random workload page gets
// a fresh frame, its leaf PTE line is rewritten through the controller (the
// guard re-embeds the MAC), and the stale translation is shot down.
func (s *System) churnOnePage() {
	pages := s.gen.Profile().FootprintPages
	if s.cfg.HugePages || pages == 0 {
		return // churn models 4 KB migration only
	}
	vaddr := s.vbase + uint64(s.rng.Intn(pages))*pte.PageSize
	newPFN, err := s.alloc.AllocFrame()
	if err != nil {
		return // memory pressure: skip this migration
	}
	lineAddr, err := s.tables.Remap(vaddr, newPFN)
	if err != nil {
		_ = s.alloc.FreeOrder(newPFN, 0)
		return
	}
	arch, _ := s.tables.LineAt(lineAddr)
	if _, err := s.ctrl.WriteLine(lineAddr, arch); err != nil {
		s.checkFails++
	}
	// Shoot down stale translation state.
	s.tlb.Flush()
	s.l2.Invalidate(lineAddr)
	s.l3.Invalidate(lineAddr)
	delete(s.cleanPTE, lineAddr)
	s.churns++
}

// Run executes n instructions and returns the measurements. A pipelined
// machine's Run drains its memory sides before it measures, and returns an
// error wrapping errDiverged if the machine diverged.
func (s *System) Run(n int) (Result, error) {
	if n <= 0 {
		return Result{}, errors.New("sim: instruction count must be positive")
	}
	if s.pipe != nil {
		s.startMemory()
	}
	for i := 0; i < n; i++ {
		s.step()
		if s.obs.ShouldSnapshot(s.core.Instructions()) {
			s.publishObs()
			s.obs.Snapshot(uint64(s.core.Cycles()), s.core.Instructions())
		}
	}
	if s.pipe != nil {
		if err := s.drainMemory(); err != nil {
			return Result{}, err
		}
	}
	if s.obs != nil {
		// Run-final snapshot: the registry reflects the completed run and
		// the series always carries at least one point per Run call.
		s.publishObs()
		s.obs.Snapshot(uint64(s.core.Cycles()), s.core.Instructions())
	}
	return s.result(), nil
}

// result assembles the measurements since the last ResetStats: System.Run's
// Result, and one core's in MultiSystem.Run. Both run at least one
// instruction first, so LLCMPKI's division is safe.
func (s *System) result() Result {
	res := Result{
		Workload:     s.gen.Profile().Name,
		Mode:         s.cfg.Mode,
		Instructions: s.core.Instructions(),
		Cycles:       s.core.Cycles(),
		IPC:          s.core.IPC(),
		TLBMissRate:  s.tlb.Stats().MissRate(),
		PageWalks:    s.walker.Stats().Walks,
		CheckFails:   s.checkFails,
		Churns:       s.churns,
		Recovery:     s.recovery,
		Ctrl:         s.ctrl.Stats(),
	}
	l3 := s.l3.Stats()
	res.LLCMPKI = 1000 * float64(l3.Misses) / float64(res.Instructions)
	if g := s.ctrl.Guard(); g != nil {
		res.Guard = g.Counters()
	}
	return res
}

// ResetStats zeroes every measurement counter (core, caches, TLB, page
// walker, the controller of each memory side with its guard, check
// failures, churns, recovery and the walk trace) while keeping caches, TLB
// and DRAM state warm. The DRAM device's own counters stay whole-run. Measurements follow
// the paper's methodology of fast-forwarding to a representative region
// (§III): run a warm-up, reset, then measure.
func (s *System) ResetStats() {
	s.core.ResetStats()
	s.l1d.ResetStats()
	s.l2.ResetStats()
	s.l3.ResetStats()
	s.tlb.ResetStats()
	s.walker.ResetStats()
	s.ctrl.ResetStats()
	if s.pipe != nil {
		for _, sd := range s.pipe.sides[1:] {
			sd.ctrl.ResetStats()
		}
	}
	s.checkFails = 0
	s.churns = 0
	s.recovery = RecoveryStats{}
	s.walkTrace = nil
	s.obs.Reset()
}

// publishObs copies every component's internal counters into the metric
// registry (the snapshot feed path; a no-op when observability is off).
func (s *System) publishObs() {
	r := s.obs.Registry()
	if r == nil {
		return
	}
	s.core.PublishObs(r)
	s.l1d.PublishObs(r)
	s.l2.PublishObs(r)
	s.l3.PublishObs(r)
	s.tlb.PublishObs(r)
	s.walker.PublishObs(r)
	s.ctrl.PublishObs(r)
	r.SetCounter("sim.check_fails", s.checkFails)
	r.SetCounter("sim.churns", s.churns)
	r.SetCounter("sim.page_walks", s.walker.Stats().Walks)
	r.SetCounter("sim.recovery.raised", s.recovery.Raised)
	r.SetCounter("sim.recovery.rebuilds", s.recovery.Rebuilds)
	r.SetCounter("sim.recovery.remaps", s.recovery.Remaps)
	r.SetCounter("sim.recovery.recovered", s.recovery.Recovered)
	r.SetCounter("sim.recovery.fatal", s.recovery.Fatal)
}

// WalkTrace returns the recorded DRAM-level PTE line fetches (TraceWalks).
func (s *System) WalkTrace() []uint64 {
	out := make([]uint64, len(s.walkTrace))
	copy(out, s.walkTrace)
	return out
}

// Tables exposes the workload's page tables (attack experiments corrupt
// them in place).
func (s *System) Tables() *ostable.PageTables { return s.tables }

// Controller exposes the memory controller.
func (s *System) Controller() *memctrl.Controller { return s.ctrl }
