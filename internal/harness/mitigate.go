package harness

import (
	"context"
	"errors"
	"fmt"

	"ptguard/internal/attack"
	"ptguard/internal/dram"
	"ptguard/internal/mitigate"
	"ptguard/internal/report"
	"ptguard/internal/stats"
)

// ---------------------------------------------------------------------------
// Mitigation head-to-head campaign: mitigation × attack pattern × PT-Guard.

// Guard modes for the mitigation matrix.
const (
	GuardOff = "off"
	GuardOn  = "on"
)

// MitigateSpec declares the head-to-head campaign: every mitigation plugin
// crossed with every attack pattern, with PT-Guard off and on, each cell
// run Trials times under derived seeds.
type MitigateSpec struct {
	// Mitigations are mitigate registry names; empty selects the whole
	// registry.
	Mitigations []string
	// Patterns are dram attack-pattern names; empty selects all.
	Patterns []string
	// Guard selects "off" and/or "on"; empty selects both.
	Guard []string
	// Trials is the number of trials per cell; zero selects 3.
	Trials int
	// Correction enables the §VI correction engine on protected trials.
	Correction bool
	// Threshold, Sampler, TableSize, Acts, WindowActs, BudgetPerWindow
	// pass through to attack.RunMitigationTrial (zero keeps its scaled
	// defaults; Budget stays disabled unless BudgetPerWindow > 0).
	Threshold       int
	Sampler         int
	TableSize       int
	Acts            int
	WindowActs      int
	BudgetPerWindow int
}

func init() { Register[MitigateSpec, attack.MitigationTrialResult]() }

// Kind names the mitigation head-to-head campaign.
func (MitigateSpec) Kind() string { return "mitigate" }

func (s MitigateSpec) withDefaults() MitigateSpec {
	if len(s.Mitigations) == 0 {
		s.Mitigations = mitigate.Names()
	}
	if len(s.Patterns) == 0 {
		s.Patterns = dram.PatternNames()
	}
	if len(s.Guard) == 0 {
		s.Guard = []string{GuardOff, GuardOn}
	}
	if s.Trials == 0 {
		s.Trials = 3
	}
	return s
}

// validate resolves every name through its registry so a typo fails the
// campaign before any job runs.
func (s MitigateSpec) validate() error {
	for _, m := range s.Mitigations {
		if _, err := mitigate.New(m, mitigate.Config{Banks: 1, RowsPerBank: 2, Threshold: 2}); err != nil {
			return fmt.Errorf("harness: %w", err)
		}
	}
	for _, p := range s.Patterns {
		if _, err := dram.PatternByName(p); err != nil {
			return fmt.Errorf("harness: %w", err)
		}
	}
	for _, g := range s.Guard {
		if g != GuardOff && g != GuardOn {
			return fmt.Errorf("harness: unknown guard mode %q (want %s or %s)", g, GuardOff, GuardOn)
		}
	}
	return nil
}

// Jobs expands the spec into one job per (mitigation, pattern, guard,
// trial). Every job's seed derives from the campaign seed and the job key,
// so the matrix is byte-identical at any worker count.
func (s MitigateSpec) Jobs(campaignSeed uint64) ([]Job[attack.MitigationTrialResult], error) {
	s = s.withDefaults()
	if err := s.validate(); err != nil {
		return nil, err
	}
	var jobs []Job[attack.MitigationTrialResult]
	for _, m := range s.Mitigations {
		for _, p := range s.Patterns {
			for _, g := range s.Guard {
				for trial := 0; trial < s.Trials; trial++ {
					m, p, protected := m, p, g == GuardOn
					key := fmt.Sprintf("mitigate/%s/%s/%s/%d", m, p, g, trial)
					seed := stats.DeriveSeed(campaignSeed, key)
					jobs = append(jobs, Job[attack.MitigationTrialResult]{
						Key: key,
						Run: func(context.Context) (attack.MitigationTrialResult, error) {
							return attack.RunMitigationTrial(attack.MitigationTrialConfig{
								Mitigation:      m,
								Pattern:         p,
								Protected:       protected,
								Correction:      protected && s.Correction,
								Seed:            seed,
								Threshold:       s.Threshold,
								Sampler:         s.Sampler,
								TableSize:       s.TableSize,
								Acts:            s.Acts,
								WindowActs:      s.WindowActs,
								BudgetPerWindow: s.BudgetPerWindow,
							})
						},
					})
				}
			}
		}
	}
	return jobs, nil
}

// mitigateCell aggregates one matrix cell's trials.
type mitigateCell struct {
	res     attack.MitigationTrialResult
	trials  int
	flips   int
	walks   attack.WalkTally
	refresh uint64
	dropped uint64
	starved uint64
}

// Report aggregates trial results into the head-to-head matrix: one row
// per (mitigation, pattern, guard) with trial-summed outcome counts, the
// defense verdict, and the mitigation cost columns.
func (s MitigateSpec) Report(results []attack.MitigationTrialResult) (*Output, error) {
	if len(results) == 0 {
		return nil, errors.New("harness: no mitigation trial results")
	}
	cells := make(map[string]*mitigateCell)
	var order []string
	for _, r := range results {
		key := r.Mitigation + "/" + r.Pattern + "/" + guardMode(r.Protected)
		c := cells[key]
		if c == nil {
			c = &mitigateCell{res: r}
			cells[key] = c
			order = append(order, key)
		}
		c.trials++
		c.flips += r.RowsFlipped
		c.walks.Add(r.WalkTally)
		c.refresh += r.Stats.RefreshesIssued
		c.dropped += r.Stats.RefreshesDropped
		c.starved += r.Stats.Budget.StarvedWindows
	}

	matrix := report.New(
		fmt.Sprintf("Mitigation head-to-head — %d trials per cell, %d victim pages walked per trial",
			s.withDefaults().Trials, attack.VictimPages),
		"mitigation", "pattern", "guard", "trials", "row flips",
		"detected", "faulted", "silent", "coverage %", "verdict",
		"refreshes", "dropped", "starved wins")
	for _, key := range order {
		c := cells[key]
		matrix.AddRow(c.res.Mitigation, c.res.Pattern, guardMode(c.res.Protected),
			report.I(c.trials), report.I(c.flips),
			report.I(c.walks.Detected), report.I(c.walks.Faulted), report.I(c.walks.Silent),
			report.Pct(c.walks.CoveragePct()), c.walks.Verdict(c.flips),
			report.U(c.refresh), report.U(c.dropped), report.U(c.starved))
	}
	return &Output{Tables: []*report.Table{matrix}}, nil
}

// guardMode names a trial's PT-Guard setting.
func guardMode(protected bool) string {
	if protected {
		return GuardOn
	}
	return GuardOff
}
