package attack

import (
	"fmt"

	"ptguard/internal/dram"
	"ptguard/internal/obs"
	"ptguard/internal/pte"
	"ptguard/internal/stats"
	"ptguard/internal/virt"
)

// Inter-VM attack target surfaces: which layer's page tables the attacker
// VM hammers rows adjacent to.
const (
	// VMTargetGuest aims at the victim tenant's own guest page tables.
	VMTargetGuest = "guest"
	// VMTargetStage2 aims at the hypervisor's stage-2/EPT tables for the
	// victim — the cross-privilege escalation surface nested paging adds.
	VMTargetStage2 = "stage2"
)

// VMTargetNames lists the attack targets in sweep order.
func VMTargetNames() []string { return []string{VMTargetGuest, VMTargetStage2} }

// VMTrialConfig declares one inter-VM Rowhammer trial: a multi-tenant host
// under one guard placement, one attacker VM hammering rows adjacent to one
// victim VM's chosen table layer.
type VMTrialConfig struct {
	// Tenants is the VM fleet size (at least 2: attacker and victim).
	Tenants int
	// PagesPerVM is each tenant's leaf mapping count; 0 selects the virt
	// default.
	PagesPerVM int
	// Placement names the guarded layers ("none", "guest", "stage2",
	// "both").
	Placement string
	// Target names the hammered surface (VMTargetGuest or VMTargetStage2).
	Target string
	// Correction enables the §VI correction engine on guarded layers.
	Correction bool
	// Seed drives everything: host layout, victim/attacker pick, fault
	// model.
	Seed uint64
	// Threshold is the charge-loss flip threshold; 0 selects
	// DefaultTrialThreshold.
	Threshold int
	// Acts is the per-row double-sided activation count; 0 selects
	// DefaultTrialActs.
	Acts int
	// FlipProb is the per-bit flip probability on a threshold crossing; 0
	// selects the LPDDR4 worst case.
	FlipProb float64
	// Obs, when non-nil, enables observability: controller/DRAM events are
	// traced, the host's counters are published, and the collected
	// RunMetrics land in VMTrialResult.Obs.
	Obs *obs.Options
}

func (c VMTrialConfig) withDefaults() VMTrialConfig {
	if c.Tenants == 0 {
		c.Tenants = 4
	}
	if c.Threshold == 0 {
		c.Threshold = DefaultTrialThreshold
	}
	if c.Acts == 0 {
		c.Acts = DefaultTrialActs
	}
	if c.FlipProb == 0 {
		c.FlipProb = dram.FlipProbLPDDR4
	}
	return c
}

// VMTrialResult is one inter-VM trial's outcome, classified with the same
// detected/faulted/silent/intact taxonomy as the 1-D campaigns.
type VMTrialResult struct {
	// Tenants, Placement, Target echo the configuration.
	Tenants   int
	Placement string
	Target    string
	// VictimVM and AttackerVM are the seed-chosen tenants.
	VictimVM   int
	AttackerVM int
	// RowsHammered is the number of distinct DRAM rows holding victim
	// table lines that were double-sided hammered; RowsFlipped counts how
	// many took at least one flip.
	RowsHammered int
	RowsFlipped  int
	// WalkTally classifies the victim's post-attack 2-D walks; a silent
	// walk consumed a tampered host frame, the cross-VM win condition.
	WalkTally
	// DetectedStage2 is the subset of detected walks caught in the
	// stage-2 dimension.
	DetectedStage2 int
	// MaxWalkAccesses is the costliest 2-D walk observed (≤ 24).
	MaxWalkAccesses int
	// TableAudit is the post-hammer integrity audit of the victim's
	// stored table lines in both layers (virt.Host.AuditTables), taken
	// before the walk classification touches — and possibly corrects — the
	// tables: Dirty counts lines a guarded layer would flag on a walk.
	TableAudit virt.TablesAudit
	// Obs carries the trial's observability data when the config asked for
	// it (metrics, time series, trace).
	Obs *obs.RunMetrics `json:"obs,omitempty"`
}

// RunVMTrial plays one inter-VM Rowhammer scenario: build a multi-tenant
// host under the given guard placement, pick a victim and a distinct
// attacker from the seed, double-sided hammer every DRAM row holding the
// victim's targeted table layer (the attacker only needs row adjacency, not
// access — the Rowhammer threat model), then translate every victim page
// and classify each walk.
func RunVMTrial(cfg VMTrialConfig) (VMTrialResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Tenants < 2 {
		return VMTrialResult{}, fmt.Errorf("attack: inter-VM trial needs at least 2 tenants, got %d", cfg.Tenants)
	}
	placement, err := virt.ParsePlacement(cfg.Placement)
	if err != nil {
		return VMTrialResult{}, err
	}
	switch cfg.Target {
	case VMTargetGuest, VMTargetStage2:
	default:
		return VMTrialResult{}, fmt.Errorf("attack: unknown inter-VM target %q (want %q or %q)",
			cfg.Target, VMTargetGuest, VMTargetStage2)
	}

	host, err := virt.NewHost(virt.Config{
		Tenants:    cfg.Tenants,
		PagesPerVM: cfg.PagesPerVM,
		Placement:  placement,
		Correction: cfg.Correction,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return VMTrialResult{}, err
	}
	var observer *obs.Observer
	if cfg.Obs != nil {
		observer = obs.New(*cfg.Obs)
		host.SetObserver(observer)
	}

	pick := stats.NewRNG(stats.DeriveSeed(cfg.Seed, "attack/vm/victim"))
	victim := int(pick.Uint64() % uint64(cfg.Tenants))
	attacker := int(pick.Uint64() % uint64(cfg.Tenants-1))
	if attacker >= victim {
		attacker++
	}

	var lines []uint64
	if cfg.Target == VMTargetGuest {
		lines, err = host.GuestTableLines(victim)
	} else {
		lines, err = host.Stage2TableLines(victim)
	}
	if err != nil {
		return VMTrialResult{}, err
	}

	hammer, err := dram.NewHammerer(host.Dev, dram.HammerConfig{
		Threshold: cfg.Threshold,
		FlipProb:  cfg.FlipProb,
		Seed:      stats.DeriveSeed(cfg.Seed, "attack/vm/hammer"),
	})
	if err != nil {
		return VMTrialResult{}, err
	}

	res := VMTrialResult{
		Tenants:   cfg.Tenants,
		Placement: string(placement),
		Target:    cfg.Target,
		VictimVM:  victim, AttackerVM: attacker,
	}

	// One double-sided burst per distinct row holding victim table lines,
	// in first-seen (ascending line address) order for determinism.
	seenRows := make(map[uint64]bool)
	for _, addr := range lines {
		base, _ := host.Dev.RowBase(addr)
		if seenRows[base] {
			continue
		}
		seenRows[base] = true
		res.RowsHammered++
		if hammer.DoubleSided(addr, cfg.Acts) > 0 {
			res.RowsFlipped++
		}
	}

	// Caches would mask stale translations: shoot everything down, as the
	// hypervisor's next scheduling tick would.
	host.FlushAll()

	// Audit the victim's stored tables before any walk can correct
	// them: the guard-side ground truth the per-walk classification below is
	// compared against.
	if res.TableAudit, err = host.AuditTables(victim); err != nil {
		return VMTrialResult{}, err
	}

	for i := 0; i < host.VMs[victim].Pages(); i++ {
		vaddr := uint64(virt.GuestVBase) + uint64(i)*pte.PageSize
		want, ok := host.SoftTranslate(victim, vaddr)
		if !ok {
			continue
		}
		tr, terr := host.Translate(victim, vaddr)
		if terr != nil {
			return VMTrialResult{}, terr
		}
		res.Classify(tr.CheckFailed, tr.Fault, tr.HostPFN != want)
		if tr.CheckFailed && tr.Stage2 {
			res.DetectedStage2++
		}
		if tr.MemAccesses > res.MaxWalkAccesses {
			res.MaxWalkAccesses = tr.MemAccesses
		}
	}

	if observer != nil {
		reg := observer.Registry()
		host.PublishObs(reg)
		reg.SetCounter("attack.vm.rows_hammered", uint64(res.RowsHammered))
		reg.SetCounter("attack.vm.rows_flipped", uint64(res.RowsFlipped))
		reg.SetCounter("attack.vm.audit_guest_lines", uint64(res.TableAudit.Guest.Lines))
		reg.SetCounter("attack.vm.audit_guest_dirty", uint64(res.TableAudit.Guest.Dirty))
		reg.SetCounter("attack.vm.audit_stage2_lines", uint64(res.TableAudit.Stage2.Lines))
		reg.SetCounter("attack.vm.audit_stage2_dirty", uint64(res.TableAudit.Stage2.Dirty))
		observer.Snapshot(observer.Now(), uint64(res.WalksChecked))
		res.Obs = observer.RunMetrics(true)
	}
	return res, nil
}
