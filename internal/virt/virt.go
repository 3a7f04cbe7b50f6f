// Package virt is the nested-paging substrate for multi-tenant campaigns:
// each tenant VM owns a guest-physical address space backed by its own
// 4-level guest page tables (built on internal/ostable), and a hypervisor
// maps guest-physical to host-physical through per-VM stage-2/EPT tables.
// Guest and stage-2 table lines live in the same simulated DRAM but are
// served by two independent memory controllers, so PT-Guard can protect
// either layer, both, or neither — the guard-placement matrix the paper
// never evaluates and the inter-VM Rowhammer campaigns sweep.
package virt

import (
	"errors"
	"fmt"
	"sort"

	"ptguard/internal/core"
	"ptguard/internal/dram"
	"ptguard/internal/mac"
	"ptguard/internal/memctrl"
	"ptguard/internal/obs"
	"ptguard/internal/ostable"
	"ptguard/internal/pte"
	"ptguard/internal/stats"
	"ptguard/internal/tlb"
)

// GuestVBase is every tenant's guest-virtual mapping base (each VM has its
// own guest address space, so the bases may coincide across VMs).
const GuestVBase = 0x40_0000_0000

// guestFrameBase is the first allocatable guest-physical frame; GPA 0 stays
// unmapped so a zeroed entry never aliases a live guest frame.
const guestFrameBase = 16

// The hypervisor carves host memory into two slab pools, as real VMMs do
// for EPT pages: stage-2 table frames from one region, guest-owned frames
// (guest table pages and data) from another. The pools are DRAM-row
// disjoint, so a Rowhammer burst into one layer's rows cannot collaterally
// flip the other layer's lines — which keeps the guard-placement matrix
// meaningful (row blast radius is the whole 8 KB row, two 4 KB frames).
const (
	// hostFrameBase matches the attack sandbox: low host frames are
	// reserved. The stage-2 slab starts here.
	hostFrameBase = 4096
	// guestHostFrameBase starts the guest-owned frame pool (row-aligned).
	guestHostFrameBase = 1 << 18
)

// Placement selects which paging layers PT-Guard protects.
type Placement string

// The guard-placement matrix.
const (
	// PlacementNone leaves both layers unprotected.
	PlacementNone Placement = "none"
	// PlacementGuest protects only the tenants' guest page tables.
	PlacementGuest Placement = "guest"
	// PlacementStage2 protects only the hypervisor's stage-2/EPT tables.
	PlacementStage2 Placement = "stage2"
	// PlacementBoth protects both layers (with independent keys).
	PlacementBoth Placement = "both"
)

// PlacementNames lists the guard placements in sweep order.
func PlacementNames() []string {
	return []string{string(PlacementNone), string(PlacementGuest), string(PlacementStage2), string(PlacementBoth)}
}

// ParsePlacement validates a placement name.
func ParsePlacement(s string) (Placement, error) {
	switch p := Placement(s); p {
	case PlacementNone, PlacementGuest, PlacementStage2, PlacementBoth:
		return p, nil
	}
	return "", fmt.Errorf("virt: unknown guard placement %q (want none, guest, stage2 or both)", s)
}

// GuestProtected reports whether the guest layer carries a guard.
func (p Placement) GuestProtected() bool { return p == PlacementGuest || p == PlacementBoth }

// Stage2Protected reports whether the stage-2 layer carries a guard.
func (p Placement) Stage2Protected() bool { return p == PlacementStage2 || p == PlacementBoth }

// Config parameterises a Host.
type Config struct {
	// Tenants is the number of VMs; 0 selects 4.
	Tenants int
	// PagesPerVM is each tenant's leaf mappings; 0 selects 16.
	PagesPerVM int
	// Placement selects the guarded layers; empty selects none.
	Placement Placement
	// Correction enables the §VI correction engine on guarded layers.
	Correction bool
	// Seed feeds the guard keys (guest and stage-2 keys derive
	// independently, as a hypervisor and its tenants would provision them).
	Seed uint64
	// TLBEntries sizes the combined-mapping TLB; 0 selects the default 64.
	TLBEntries int
}

func (c Config) withDefaults() Config {
	if c.Tenants == 0 {
		c.Tenants = 4
	}
	if c.PagesPerVM == 0 {
		c.PagesPerVM = 16
	}
	if c.Placement == "" {
		c.Placement = PlacementNone
	}
	return c
}

// VM is one tenant: its guest page tables (addresses are guest-physical)
// and the hypervisor's stage-2 tables for it (addresses are host-physical).
type VM struct {
	// ID is the tenant's VMID, tagging its TLB entries.
	ID int
	// GuestPT maps guest-virtual to guest-physical; its table pages live
	// at guest-physical addresses and are materialised in host DRAM
	// through the stage-2 mapping.
	GuestPT *ostable.PageTables
	// Stage2 maps guest-physical to host-physical; its table pages are
	// host frames written to DRAM directly.
	Stage2 *ostable.PageTables

	guestAlloc *ostable.FrameAllocator
	pages      int
}

// Pages returns the tenant's leaf mapping count.
func (v *VM) Pages() int { return v.pages }

// Host is the hypervisor: host physical memory, the two (differently
// guarded) controllers, the combined-mapping TLB, the 2-D walker, and the
// tenant fleet.
type Host struct {
	Dev *dram.Device
	// GuestCtrl serves guest-table lines; S2Ctrl serves stage-2 lines.
	// Each carries a guard iff the placement protects its layer.
	GuestCtrl *memctrl.Controller
	S2Ctrl    *memctrl.Controller
	// Alloc hands out stage-2 table frames; GuestAlloc hands out
	// guest-owned host frames (guest table pages and data). Separate,
	// row-disjoint slabs — see the frame-base constants.
	Alloc      *ostable.FrameAllocator
	GuestAlloc *ostable.FrameAllocator
	TLB        *tlb.TLB
	Walker     *tlb.NestedWalker
	VMs        []*VM

	cfg Config
}

// NewHost builds the hypervisor and its tenant fleet.
func NewHost(cfg Config) (*Host, error) {
	cfg = cfg.withDefaults()
	if cfg.Tenants < 1 {
		return nil, errors.New("virt: need at least one tenant")
	}
	if cfg.PagesPerVM < 1 || cfg.PagesPerVM > 8192 {
		return nil, fmt.Errorf("virt: pages per VM %d outside [1, 8192]", cfg.PagesPerVM)
	}
	dev, err := dram.NewDevice(dram.Geometry{}, dram.Timing{})
	if err != nil {
		return nil, err
	}
	guestGuard, err := newGuard(cfg.Placement.GuestProtected(), cfg.Correction, cfg.Seed, "virt/key/guest")
	if err != nil {
		return nil, err
	}
	s2Guard, err := newGuard(cfg.Placement.Stage2Protected(), cfg.Correction, cfg.Seed, "virt/key/stage2")
	if err != nil {
		return nil, err
	}
	guestCtrl, err := memctrl.New(dev, guestGuard, 0)
	if err != nil {
		return nil, err
	}
	s2Ctrl, err := memctrl.New(dev, s2Guard, 0)
	if err != nil {
		return nil, err
	}
	alloc, err := ostable.NewFrameAllocator(hostFrameBase, guestHostFrameBase-hostFrameBase)
	if err != nil {
		return nil, err
	}
	guestAlloc, err := ostable.NewFrameAllocator(guestHostFrameBase,
		dev.Geometry().Capacity()/pte.PageSize-guestHostFrameBase)
	if err != nil {
		return nil, err
	}
	t, err := tlb.New(cfg.TLBEntries)
	if err != nil {
		return nil, err
	}
	h := &Host{Dev: dev, GuestCtrl: guestCtrl, S2Ctrl: s2Ctrl, Alloc: alloc, GuestAlloc: guestAlloc, TLB: t, cfg: cfg}
	h.Walker, err = tlb.NewNestedWalker(
		func(addr uint64) (pte.Line, bool) {
			line, _, ok := guestCtrl.ReadLine(addr, true)
			return line, ok
		},
		func(addr uint64) (pte.Line, bool) {
			line, _, ok := s2Ctrl.ReadLine(addr, true)
			return line, ok
		},
	)
	if err != nil {
		return nil, err
	}
	for id := 0; id < cfg.Tenants; id++ {
		vm, berr := h.buildVM(id)
		if berr != nil {
			return nil, fmt.Errorf("virt: tenant %d: %w", id, berr)
		}
		h.VMs = append(h.VMs, vm)
	}
	return h, nil
}

// newGuard builds a PT-Guard instance for one layer, or nil when the
// placement leaves the layer unprotected.
func newGuard(protected, correction bool, seed uint64, salt string) (*core.Guard, error) {
	if !protected {
		return nil, nil
	}
	format, err := pte.FormatX86(40)
	if err != nil {
		return nil, err
	}
	key := make([]byte, mac.KeySize)
	kr := stats.NewRNG(stats.DeriveSeed(seed, salt))
	for i := range key {
		key[i] = byte(kr.Uint64())
	}
	softK := 0
	if correction {
		softK = 4
	}
	return core.NewGuard(core.Config{
		Format:           format,
		Key:              key,
		EnableCorrection: correction,
		SoftMatchK:       softK,
		// The §V-B zero-cacheline optimization: all-zero lines carry
		// MAC-zero and verify without a computation. Essential here —
		// a silently corrupted pointer in the *other* (unguarded) layer
		// can send a guarded walk to an absent line, which must read as
		// a clean non-present entry (a fault), not a spurious integrity
		// exception in the guarded layer.
		OptZeroMAC: true,
	})
}

// buildVM constructs one tenant: guest tables in a private guest-physical
// space, stage-2 mappings for every guest frame in use, and both layers
// flushed into DRAM through their controllers.
func (h *Host) buildVM(id int) (*VM, error) {
	guestFrames := uint64(h.cfg.PagesPerVM) + 64 // data frames + table-page headroom
	guestAlloc, err := ostable.NewFrameAllocator(guestFrameBase, guestFrames)
	if err != nil {
		return nil, err
	}
	guestPT, err := ostable.NewPageTables(guestAlloc)
	if err != nil {
		return nil, err
	}
	flags := pte.Entry(0).SetBit(pte.BitWritable, true).SetBit(pte.BitUserAccessible, true)
	dataGPFNs := make([]uint64, 0, h.cfg.PagesPerVM)
	for i := 0; i < h.cfg.PagesPerVM; i++ {
		gpfn, aerr := guestAlloc.AllocFrame()
		if aerr != nil {
			return nil, aerr
		}
		if merr := guestPT.Map(GuestVBase+uint64(i)*pte.PageSize, gpfn, flags); merr != nil {
			return nil, merr
		}
		dataGPFNs = append(dataGPFNs, gpfn)
	}

	// Stage-2: one mapping per guest frame in use — the guest's table
	// pages (so the 2-D walker can find them) and its data frames (so leaf
	// translations resolve). Deterministic order keeps host-frame
	// assignment, and with it DRAM row layout, reproducible from the seed.
	s2, err := ostable.NewPageTables(h.Alloc)
	if err != nil {
		return nil, err
	}
	var gframes []uint64
	seen := make(map[uint64]bool)
	guestPT.Lines(func(gaddr uint64, _ pte.Line) {
		page := gaddr &^ uint64(pte.PageSize-1)
		if !seen[page] {
			seen[page] = true
			gframes = append(gframes, page>>pte.PageShift)
		}
	})
	sort.Slice(gframes, func(i, j int) bool { return gframes[i] < gframes[j] })
	gframes = append(gframes, dataGPFNs...)
	for _, gpfn := range gframes {
		hpfn, aerr := h.GuestAlloc.AllocFrame()
		if aerr != nil {
			return nil, aerr
		}
		if merr := s2.Map(gpfn<<pte.PageShift, hpfn, flags); merr != nil {
			return nil, merr
		}
	}

	vm := &VM{ID: id, GuestPT: guestPT, Stage2: s2, guestAlloc: guestAlloc, pages: h.cfg.PagesPerVM}

	// Materialise both layers in DRAM: stage-2 lines at their own host
	// addresses, guest-table lines at the host frames stage-2 assigns. Each
	// layer flushes as one batch through its controller, which stores the
	// protected lines to be sealed on first read.
	var flushAddrs []uint64
	var flushLines []pte.Line
	s2.Lines(func(addr uint64, line pte.Line) {
		flushAddrs = append(flushAddrs, addr)
		flushLines = append(flushLines, line)
	})
	if _, werr := h.S2Ctrl.WriteLinesBatch(flushAddrs, flushLines); werr != nil {
		return nil, werr
	}
	flushAddrs, flushLines = flushAddrs[:0], flushLines[:0]
	var flushErr error
	guestPT.Lines(func(gaddr uint64, line pte.Line) {
		haddr, ok := vm.hostAddr(gaddr)
		if !ok {
			if flushErr == nil {
				flushErr = fmt.Errorf("virt: guest table line %#x has no stage-2 mapping", gaddr)
			}
			return
		}
		flushAddrs = append(flushAddrs, haddr)
		flushLines = append(flushLines, line)
	})
	if flushErr != nil {
		return nil, flushErr
	}
	if _, werr := h.GuestCtrl.WriteLinesBatch(flushAddrs, flushLines); werr != nil {
		return nil, werr
	}
	return vm, nil
}

// hostAddr software-translates a guest-physical address through the VM's
// stage-2 tables.
func (v *VM) hostAddr(gpa uint64) (uint64, bool) {
	hpfn, ok := v.Stage2.Translate(gpa)
	if !ok {
		return 0, false
	}
	return hpfn<<pte.PageShift | gpa&(pte.PageSize-1), true
}

// Translation is the outcome of one hosted translation request.
type Translation struct {
	// HostPFN is the host frame (valid only when OK).
	HostPFN uint64
	// OK reports a usable translation (TLB hit or clean full walk).
	OK bool
	// TLBHit reports the combined-mapping TLB served it without a walk.
	TLBHit bool
	// Fault, CheckFailed and Stage2 mirror the walk result on a miss.
	Fault, CheckFailed, Stage2 bool
	// MemAccesses is the walk's memory cost (0 on a TLB hit).
	MemAccesses int
}

// Translate resolves a tenant's guest-virtual address: combined-mapping TLB
// first, then the 2-D walk, installing clean results VMID-tagged.
func (h *Host) Translate(vmid int, vaddr uint64) (Translation, error) {
	vm, err := h.vm(vmid)
	if err != nil {
		return Translation{}, err
	}
	vpn := vaddr >> pte.PageShift
	if hpfn, ok := h.TLB.LookupVM(vmid, vpn); ok {
		return Translation{HostPFN: hpfn, OK: true, TLBHit: true}, nil
	}
	res := h.Walker.Walk(vm.Stage2.Root(), vm.GuestPT.Root(), vaddr)
	tr := Translation{
		Fault: res.Fault, CheckFailed: res.CheckFailed, Stage2: res.Stage2,
		MemAccesses: res.MemAccesses,
	}
	if res.Fault || res.CheckFailed {
		return tr, nil
	}
	tr.HostPFN, tr.OK = res.HostPFN, true
	h.TLB.InsertVM(vmid, vpn, res.HostPFN)
	return tr, nil
}

// SoftTranslate walks the trusted shadow tables (ground truth, untouched by
// DRAM disturbance): guest-virtual → guest-physical → host frame.
func (h *Host) SoftTranslate(vmid int, vaddr uint64) (uint64, bool) {
	vm, err := h.vm(vmid)
	if err != nil {
		return 0, false
	}
	gpfn, ok := vm.GuestPT.Translate(vaddr)
	if !ok {
		return 0, false
	}
	return vm.Stage2.Translate(gpfn << pte.PageShift)
}

func (h *Host) vm(vmid int) (*VM, error) {
	if vmid < 0 || vmid >= len(h.VMs) {
		return nil, fmt.Errorf("virt: no VM %d (have %d tenants)", vmid, len(h.VMs))
	}
	return h.VMs[vmid], nil
}

// GuestTableLines returns the host-physical line addresses backing one
// tenant's guest page tables, in ascending order: the Rowhammer target
// surface of the "guest" attack.
func (h *Host) GuestTableLines(vmid int) ([]uint64, error) {
	vm, err := h.vm(vmid)
	if err != nil {
		return nil, err
	}
	var out []uint64
	vm.GuestPT.Lines(func(gaddr uint64, _ pte.Line) {
		if haddr, ok := vm.hostAddr(gaddr); ok {
			out = append(out, haddr)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Stage2TableLines returns the host-physical line addresses of one
// tenant's stage-2/EPT tables, in ascending order: the hypervisor-owned
// target surface of the "stage2" attack.
func (h *Host) Stage2TableLines(vmid int) ([]uint64, error) {
	vm, err := h.vm(vmid)
	if err != nil {
		return nil, err
	}
	var out []uint64
	vm.Stage2.Lines(func(addr uint64, _ pte.Line) { out = append(out, addr) })
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// LayerAudit is one paging layer's audit outcome.
type LayerAudit struct {
	// Audited is false when the layer carries no guard: there is nothing
	// to verify and Lines/Dirty stay zero.
	Audited bool
	// Lines is the number of stored table lines swept; Dirty counts those
	// that would fail the page-table-walk integrity check.
	Lines, Dirty int
}

// TablesAudit pairs the two layers' audits for one tenant.
type TablesAudit struct {
	Guest, Stage2 LayerAudit
}

// AuditTables sweeps one tenant's stored table lines in both layers through
// the guards' scrub path (core.Guard.Audit): every line is re-read from
// DRAM and verified without perturbing guard counters, CTB state or
// corrections — the post-attack classification campaigns run after
// hammering to tell silent table corruption from detected corruption.
func (h *Host) AuditTables(vmid int) (TablesAudit, error) {
	gaddrs, err := h.GuestTableLines(vmid)
	if err != nil {
		return TablesAudit{}, err
	}
	s2addrs, err := h.Stage2TableLines(vmid)
	if err != nil {
		return TablesAudit{}, err
	}
	return TablesAudit{
		Guest:  h.auditLayer(h.GuestCtrl, gaddrs),
		Stage2: h.auditLayer(h.S2Ctrl, s2addrs),
	}, nil
}

func (h *Host) auditLayer(ctrl *memctrl.Controller, addrs []uint64) LayerAudit {
	g := ctrl.Guard()
	if g == nil {
		return LayerAudit{}
	}
	audit := LayerAudit{Audited: true, Lines: len(addrs)}
	for _, a := range addrs {
		if !g.Audit(h.Dev.ReadLine(a), a) {
			audit.Dirty++
		}
	}
	return audit
}

// Shootdown flushes one tenant's TLB entries and both walker MMU caches
// (the hypervisor's response to modifying that tenant's tables). Other
// tenants' TLB entries stay warm — the VMID-tag payoff.
func (h *Host) Shootdown(vmid int) error {
	if _, err := h.vm(vmid); err != nil {
		return err
	}
	h.TLB.FlushVM(vmid)
	h.Walker.Flush()
	return nil
}

// FlushAll drops every cached translation (TLB and both MMU caches).
func (h *Host) FlushAll() {
	h.TLB.Flush()
	h.Walker.Flush()
}

// SetObserver attaches the observability subsystem to both memory
// controllers (and, through them, the guards and the shared DRAM device).
// A nil observer detaches.
func (h *Host) SetObserver(o *obs.Observer) {
	h.GuestCtrl.SetObserver(o)
	h.S2Ctrl.SetObserver(o)
}

// Tenants returns the fleet size.
func (h *Host) Tenants() int { return len(h.VMs) }

// Config returns the host's (defaulted) configuration.
func (h *Host) Config() Config { return h.cfg }

// PublishObs feeds the virtualization counters into the metric registry:
// TLB and 2-D walker pressure plus per-layer controller/guard activity
// under "virt.guest." and "virt.stage2." (a nil registry is a no-op).
func (h *Host) PublishObs(r *obs.Registry) {
	if r == nil {
		return
	}
	r.SetGauge("virt.tenants", float64(len(h.VMs)))
	h.TLB.PublishObs(r)
	h.Walker.PublishObs(r)
	for _, layer := range []struct {
		prefix string
		ctrl   *memctrl.Controller
	}{{"virt.guest.", h.GuestCtrl}, {"virt.stage2.", h.S2Ctrl}} {
		st := layer.ctrl.Stats()
		r.SetCounter(layer.prefix+"reads", st.Reads)
		r.SetCounter(layer.prefix+"writes", st.Writes)
		r.SetCounter(layer.prefix+"check_failures", st.CheckFailures)
		r.SetCounter(layer.prefix+"corrected_reads", st.CorrectedReads)
		r.SetCounter(layer.prefix+"read_mac_cycles", st.ReadMACCycles)
	}
}
