package attack

import (
	"fmt"

	"ptguard/internal/dram"
	"ptguard/internal/mitigate"
	"ptguard/internal/obs"
	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

// Scaled-down defaults for mitigation head-to-head trials: a real DDR4
// threshold (10K activations) makes every cell of the mitigation × pattern
// matrix cost tens of millions of activations, so the trials shrink the
// flip threshold and window proportionally. Relative orderings (which
// tracker stops which pattern) are threshold-scale-invariant because every
// tracker's detection threshold scales with the same knob.
const (
	// DefaultTrialThreshold is the scaled charge-loss flip threshold.
	DefaultTrialThreshold = 64
	// DefaultTrialActs is the total aggressor activations per trial —
	// enough for many threshold crossings at the scaled threshold.
	DefaultTrialActs = 40_000
	// DefaultTrialWindowActs is the scaled tREFW auto-refresh period.
	DefaultTrialWindowActs = 8192
	// DefaultBudgetWindow is the scaled tREFI the refresh budget charges
	// against when a budget is requested.
	DefaultBudgetWindow = 64
)

// MitigationTrialConfig declares one cell of the head-to-head matrix: a
// mitigation plugin from the registry, an attack pattern, and the PT-Guard
// toggle, plus the scaled physics knobs.
type MitigationTrialConfig struct {
	// Mitigation names a mitigate registry plugin ("none", "trr",
	// "softtrr", "graphene", "para", "oracle").
	Mitigation string
	// Pattern names a dram attack pattern ("classic", "half-double",
	// "many-sided").
	Pattern string
	// Protected selects PT-Guard at the memory controller; Correction
	// additionally enables the §VI correction engine.
	Protected  bool
	Correction bool
	// Seed drives every RNG in the trial (fault model, PARA schedule).
	Seed uint64
	// Threshold is the charge-loss flip threshold; 0 selects
	// DefaultTrialThreshold.
	Threshold int
	// Sampler is the tracker's detection threshold; 0 selects
	// Threshold/2 (detect before the flip lands, the regime every
	// deployed mitigation targets).
	Sampler int
	// TableSize bounds the tracker's table (TRR sampler, Graphene); 0
	// keeps each tracker's default.
	TableSize int
	// Acts is the total aggressor activations; 0 selects
	// DefaultTrialActs.
	Acts int
	// WindowActs is the auto-refresh period in activations; 0 selects
	// DefaultTrialWindowActs, negative disables the window.
	WindowActs int
	// BudgetPerWindow, when positive, caps mitigative refreshes per
	// DefaultBudgetWindow activations (the tREFI starvation model).
	BudgetPerWindow int
	// FlipProb is the per-bit flip probability on a threshold crossing;
	// 0 selects the LPDDR4 worst case (sparse flips: a crossing corrupts
	// a few PTE bits rather than inverting whole lines, so unprotected
	// walks split between silent corruption and faults like §II-C).
	FlipProb float64
	// Obs, when non-nil, receives the trial's mitigation and world
	// counters (nil-safe, zero overhead when disabled).
	Obs *obs.Registry
}

func (c MitigationTrialConfig) withDefaults() MitigationTrialConfig {
	if c.Threshold == 0 {
		c.Threshold = DefaultTrialThreshold
	}
	if c.Sampler == 0 {
		c.Sampler = c.Threshold / 2
	}
	if c.Acts == 0 {
		c.Acts = DefaultTrialActs
	}
	if c.WindowActs == 0 {
		c.WindowActs = DefaultTrialWindowActs
	}
	if c.WindowActs < 0 {
		c.WindowActs = 0
	}
	if c.FlipProb == 0 {
		c.FlipProb = dram.FlipProbLPDDR4
	}
	return c
}

// WalkTally classifies the victim page walks taken after an attack, the
// taxonomy every head-to-head trial reports in.
type WalkTally struct {
	// WalksChecked is the number of victim pages walked post-attack.
	WalksChecked int
	// Detected counts walks PT-Guard aborted with an integrity exception
	// before the translation was consumed.
	Detected int
	// Faulted counts walks that hit a non-present entry (corruption
	// visible as a crash, not an exploit).
	Faulted int
	// Silent counts walks that consumed a tampered translation — the
	// attacker's win condition.
	Silent int
	// Intact counts walks that returned the original translation.
	Intact int
}

// Classify counts one walk.
func (t *WalkTally) Classify(checkFailed, faulted, tampered bool) {
	t.WalksChecked++
	switch {
	case checkFailed:
		t.Detected++
	case faulted:
		t.Faulted++
	case tampered:
		t.Silent++
	default:
		t.Intact++
	}
}

// Add sums another tally into t.
func (t *WalkTally) Add(o WalkTally) {
	t.WalksChecked += o.WalksChecked
	t.Detected += o.Detected
	t.Faulted += o.Faulted
	t.Silent += o.Silent
	t.Intact += o.Intact
}

// CoveragePct is the share of corrupted walks PT-Guard caught.
func (t WalkTally) CoveragePct() float64 {
	bad := t.Detected + t.Silent
	if bad == 0 {
		return 100
	}
	return 100 * float64(t.Detected) / float64(bad)
}

// Verdict names the defense outcome of walks taken after rowsFlipped
// rows took flips: DEFEATED on any silent corruption, else crashed on any
// fault, else no flips or defended.
func (t WalkTally) Verdict(rowsFlipped int) string {
	switch {
	case t.Silent > 0:
		return "DEFEATED"
	case t.Faulted > 0:
		return "crashed"
	case rowsFlipped == 0:
		return "no flips"
	}
	return "defended"
}

// MitigationTrialResult is one matrix cell's outcome.
type MitigationTrialResult struct {
	// Mitigation, Pattern, Protected echo the trial configuration.
	Mitigation string
	Pattern    string
	Protected  bool
	// RowsFlipped counts flip bursts into rows holding victim PTE lines.
	RowsFlipped int
	// WalkTally classifies the victim's post-attack page walks.
	WalkTally
	// Stats is the mitigation engine's counter snapshot (refreshes,
	// tracker table activity, budget starvation).
	Stats dram.MitigationStats
}

// RunMitigationTrial plays one attack pattern against one mitigation with
// PT-Guard on or off: build a sandbox world with the scaled flip
// threshold, aim the pattern at the victim's leaf-PTE row through a
// MitigatedHammerer running the named tracker, then walk every victim page
// and classify each walk as detected, faulted, silently corrupted, or
// intact.
func RunMitigationTrial(cfg MitigationTrialConfig) (MitigationTrialResult, error) {
	cfg = cfg.withDefaults()
	w, err := NewWorldWith(WorldConfig{
		Protected:  cfg.Protected,
		Correction: cfg.Correction,
		Seed:       cfg.Seed,
		Hammer:     dram.HammerConfig{Threshold: cfg.Threshold, FlipProb: cfg.FlipProb, Seed: cfg.Seed},
	})
	if err != nil {
		return MitigationTrialResult{}, err
	}
	geo := w.Dev.Geometry()

	mit, err := mitigate.New(cfg.Mitigation, mitigate.Config{
		Banks:       geo.Channels * geo.BanksPerChannel,
		RowsPerBank: geo.RowsPerBank,
		Threshold:   cfg.Sampler,
		TableSize:   cfg.TableSize,
		Seed:        stats.DeriveSeed(cfg.Seed, "attack/mitigation/"+cfg.Mitigation),
	})
	if err != nil {
		return MitigationTrialResult{}, err
	}
	// Software mitigations that track only registered rows (SoftTRR) get
	// told where the page tables live, exactly like the OS hook would.
	if reg, ok := mit.(mitigate.RowRegistrar); ok {
		seen := make(map[int]bool)
		w.Tables.Lines(func(addr uint64, _ pte.Line) {
			loc := w.Dev.Locate(addr)
			bankIdx := loc.Channel*geo.BanksPerChannel + loc.Bank
			key := bankIdx*geo.RowsPerBank + loc.Row
			if !seen[key] {
				seen[key] = true
				reg.RegisterRow(bankIdx, loc.Row)
			}
		})
	}
	var budget *mitigate.Budget
	if cfg.BudgetPerWindow > 0 {
		budget, err = mitigate.NewBudget(cfg.BudgetPerWindow, DefaultBudgetWindow)
		if err != nil {
			return MitigationTrialResult{}, err
		}
	}
	mh, err := dram.NewMitigatedHammerer(w.Dev, w.Hammer, dram.MitigationConfig{
		Mitigator:  mit,
		Budget:     budget,
		WindowActs: cfg.WindowActs,
	})
	if err != nil {
		return MitigationTrialResult{}, err
	}

	pattern, err := dram.PatternByName(cfg.Pattern)
	if err != nil {
		return MitigationTrialResult{}, err
	}
	ea, ok := w.Tables.LeafEntryAddr(VictimVBase)
	if !ok {
		return MitigationTrialResult{}, fmt.Errorf("attack: victim vaddr %#x not mapped", uint64(VictimVBase))
	}
	victimLine := ea &^ uint64(pte.LineBytes-1)
	flipped, err := mh.HammerPattern(pattern, victimLine, cfg.Acts)
	if err != nil {
		return MitigationTrialResult{}, err
	}

	res := MitigationTrialResult{
		Mitigation:  cfg.Mitigation,
		Pattern:     cfg.Pattern,
		Protected:   cfg.Protected,
		RowsFlipped: len(flipped),
		Stats:       mh.Stats(),
	}
	for i := 0; i < VictimPages; i++ {
		vaddr := uint64(VictimVBase) + uint64(i)*pte.PageSize
		want, ok := w.Tables.Translate(vaddr)
		if !ok {
			continue
		}
		walk := w.Walker.Walk(w.Tables.Root(), vaddr)
		res.Classify(walk.CheckFailed, walk.Fault, walk.PFN != want)
	}
	if cfg.Obs != nil {
		mh.PublishObs(cfg.Obs)
		w.PublishObs(cfg.Obs)
	}
	return res, nil
}
