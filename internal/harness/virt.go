package harness

import (
	"context"
	"errors"
	"fmt"

	"ptguard/internal/attack"
	"ptguard/internal/report"
	"ptguard/internal/virt"
)

// ---------------------------------------------------------------------------
// Inter-VM campaign: tenant count × guard placement × attack target.

// VirtSpec declares the inter-VM Rowhammer campaign: every tenant-fleet
// size crossed with every guard placement and attack target, each cell run
// Trials times under derived seeds.
type VirtSpec struct {
	// Tenants are the fleet sizes to sweep; empty selects {4}.
	Tenants []int
	// Placements are guard placements ("none", "guest", "stage2", "both");
	// empty selects all four.
	Placements []string
	// Targets are attack surfaces ("guest", "stage2"); empty selects both.
	Targets []string
	// Trials is the number of trials per cell; zero selects 3.
	Trials int
	// PagesPerVM is each tenant's leaf mapping count; zero keeps the virt
	// default.
	PagesPerVM int
	// Correction enables the §VI correction engine on guarded layers.
	Correction bool
	// Threshold, Acts, FlipProb pass through to attack.RunVMTrial (zero
	// keeps its scaled defaults).
	Threshold int
	Acts      int
	FlipProb  float64
	// Obs configures per-job observability (nil disables).
	Obs *ObsSpec
}

func init() { Register[VirtSpec, attack.VMTrialResult]() }

// Kind names the inter-VM campaign.
func (VirtSpec) Kind() string { return "virt" }

func (s VirtSpec) withDefaults() VirtSpec {
	if len(s.Tenants) == 0 {
		s.Tenants = []int{4}
	}
	if len(s.Placements) == 0 {
		s.Placements = virt.PlacementNames()
	}
	if len(s.Targets) == 0 {
		s.Targets = attack.VMTargetNames()
	}
	if s.Trials == 0 {
		s.Trials = 3
	}
	return s
}

// validate fails the campaign on a bad name or fleet size before any job
// runs.
func (s VirtSpec) validate() error {
	for _, n := range s.Tenants {
		if n < 2 {
			return fmt.Errorf("harness: tenant count %d too small (need attacker and victim)", n)
		}
	}
	for _, p := range s.Placements {
		if _, err := virt.ParsePlacement(p); err != nil {
			return fmt.Errorf("harness: %w", err)
		}
	}
	for _, tgt := range s.Targets {
		switch tgt {
		case attack.VMTargetGuest, attack.VMTargetStage2:
		default:
			return fmt.Errorf("harness: unknown inter-VM target %q (want %q or %q)",
				tgt, attack.VMTargetGuest, attack.VMTargetStage2)
		}
	}
	return nil
}

// Jobs expands the spec into one job per (tenants, target, placement,
// trial). Every job's seed derives from the campaign seed and the job key,
// so the sweep is byte-identical at any worker count.
func (s VirtSpec) Jobs(campaignSeed uint64) ([]Job[attack.VMTrialResult], error) {
	s = s.withDefaults()
	if err := s.validate(); err != nil {
		return nil, err
	}
	var jobs []Job[attack.VMTrialResult]
	for _, tenants := range s.Tenants {
		for _, target := range s.Targets {
			for _, placement := range s.Placements {
				for trial := 0; trial < s.Trials; trial++ {
					tenants, target, placement := tenants, target, placement
					key := fmt.Sprintf("vm/t%03d/%s/%s/%d", tenants, target, placement, trial)
					seed := DeriveSeed(campaignSeed, key)
					jobs = append(jobs, Job[attack.VMTrialResult]{
						Key: key,
						Run: func(context.Context) (attack.VMTrialResult, error) {
							res, err := attack.RunVMTrial(attack.VMTrialConfig{
								Tenants:    tenants,
								PagesPerVM: s.PagesPerVM,
								Placement:  placement,
								Target:     target,
								Correction: s.Correction,
								Seed:       seed,
								Threshold:  s.Threshold,
								Acts:       s.Acts,
								FlipProb:   s.FlipProb,
								Obs:        s.Obs.options(),
							})
							res.Obs = s.Obs.strip(res.Obs)
							return res, err
						},
					})
				}
			}
		}
	}
	return jobs, nil
}

// virtCell aggregates one sweep cell's trials.
type virtCell struct {
	res    attack.VMTrialResult
	trials int
	flips  int
	walks  attack.WalkTally
	s2det  int
	maxAcc int
}

// Report aggregates trial results into the inter-VM matrix: one row per
// (tenants, target, placement) with trial-summed outcome counts, PT-Guard
// coverage, and the defense verdict. Each trial's observability data is
// labelled tNNN/target/placement.
func (s VirtSpec) Report(results []attack.VMTrialResult) (*Output, error) {
	if len(results) == 0 {
		return nil, errors.New("harness: no inter-VM trial results")
	}
	out := &Output{}
	cells := make(map[string]*virtCell)
	var order []string
	for _, r := range results {
		key := fmt.Sprintf("t%03d/%s/%s", r.Tenants, r.Target, r.Placement)
		out.Runs = append(out.Runs, LabelledRun{key, r.Obs})
		c := cells[key]
		if c == nil {
			c = &virtCell{res: r}
			cells[key] = c
			order = append(order, key)
		}
		c.trials++
		c.flips += r.RowsFlipped
		c.walks.Add(r.WalkTally)
		c.s2det += r.DetectedStage2
		c.maxAcc = max(c.maxAcc, r.MaxWalkAccesses)
	}

	matrix := report.New(
		fmt.Sprintf("Inter-VM Rowhammer — %d trials per cell, victim pages walked post-attack", s.withDefaults().Trials),
		"tenants", "target", "placement", "trials", "row flips", "walks",
		"detected", "s2 det", "faulted", "silent", "intact",
		"coverage %", "max walk", "verdict")
	for _, key := range order {
		c := cells[key]
		matrix.AddRow(report.I(c.res.Tenants), c.res.Target, c.res.Placement,
			report.I(c.trials), report.I(c.flips), report.I(c.walks.WalksChecked),
			report.I(c.walks.Detected), report.I(c.s2det), report.I(c.walks.Faulted),
			report.I(c.walks.Silent), report.I(c.walks.Intact),
			report.Pct(c.walks.CoveragePct()), report.I(c.maxAcc), c.walks.Verdict(c.flips))
	}
	out.Tables = []*report.Table{matrix}
	return out, nil
}
