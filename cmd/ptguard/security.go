package main

import (
	"flag"
	"fmt"
	"os"

	"ptguard/internal/attack"
	"ptguard/internal/dram"
	"ptguard/internal/mac"
	"ptguard/internal/mitigate"
	"ptguard/internal/report"
)

// securityCmd evaluates the analytic security model of §VI-E: Eq. 1
// (effective MAC strength under fault-tolerant matching and correction
// guesses) and Eq. 2 (uncorrectable-MAC probability), plus the attack-time
// estimates of §IV-G. With -mitigation it adds an empirical
// residual-exposure table: the named in-DRAM mitigation (resolved through
// the internal/mitigate registry) faces every TRR-aware attack pattern
// with PT-Guard off and on, showing which patterns slip past the tracker
// and whether the integrity check catches what does.
func securityCmd(fs *flag.FlagSet) func() error {
	n := fs.Int("mac-bits", 96, "MAC width n")
	gMax := fs.Int("gmax", mac.GMaxPaper, "maximum correction guesses")
	attemptNs := fs.Float64("attempt-ns", 50, "nanoseconds per attack attempt")
	mitigation := fs.String("mitigation", "", "add an empirical exposure table for this internal/mitigate plugin (e.g. trr, graphene, oracle)")
	seed := seedFlag(fs)
	format := formatFlag(fs)

	return func() error {
		if *mitigation != "" {
			if _, err := mitigate.New(*mitigation, mitigate.Config{Banks: 1, RowsPerBank: 2, Threshold: 2}); err != nil {
				return fmt.Errorf("-mitigation: %w", err)
			}
		}

		eq1 := report.New(
			fmt.Sprintf("Eq. 1 — effective MAC strength (n=%d, G_max=%d)", *n, *gMax),
			"k (tolerated MAC faults)", "n_eff (bits)", "security loss (bits)", "attack time (years)")
		for k := 0; k <= 8; k++ {
			nEff, err := mac.EffectiveMACBits(*n, k, *gMax)
			if err != nil {
				return err
			}
			eq1.AddRow(report.I(k), report.F(nEff, 1),
				report.F(float64(*n)-nEff, 1),
				fmt.Sprintf("%.3g", mac.AttackYears(nEff, *attemptNs)))
		}

		eq2 := report.New(
			fmt.Sprintf("Eq. 2 — uncorrectable MAC probability (n=%d)", *n),
			"p_flip", "lowest k for <1% uncorrectable", "P(>k flips) at that k")
		for _, p := range []struct {
			label string
			v     float64
		}{
			{label: "1/512 (DDR4 worst case)", v: 1.0 / 512},
			{label: "1/256", v: 1.0 / 256},
			{label: "1/128 (LPDDR4 worst case)", v: 1.0 / 128},
			{label: "0.01 (paper's 1% operating point)", v: 0.01},
		} {
			k, err := mac.PickSoftMatchBudget(*n, p.v, 0.01)
			if err != nil {
				return err
			}
			pu, err := mac.UncorrectableMACProb(*n, k, p.v)
			if err != nil {
				return err
			}
			eq2.AddRow(p.label, report.I(k), fmt.Sprintf("%.4g", pu))
		}

		tables := []*report.Table{eq1, eq2}
		if *mitigation != "" {
			exposure, err := exposureTable(*mitigation, *seed)
			if err != nil {
				return err
			}
			tables = append(tables, exposure)
		}
		return report.EmitAll(os.Stdout, tables, *format)
	}
}

// exposureTable plays every attack pattern against the named mitigation
// with PT-Guard off and on: the empirical counterpart to Eq. 1 — the
// tracker bounds which patterns reach the page tables, the MAC bounds
// what an attacker gains when one does.
func exposureTable(mitigation string, seed uint64) (*report.Table, error) {
	tbl := report.New(
		fmt.Sprintf("Residual exposure — %s tracker vs TRR-aware patterns (%d victim pages)",
			mitigation, attack.VictimPages),
		"pattern", "guard", "row flips", "detected", "faulted", "silent", "verdict")
	for _, pattern := range dram.PatternNames() {
		for _, protected := range []bool{false, true} {
			res, err := attack.RunMitigationTrial(attack.MitigationTrialConfig{
				Mitigation: mitigation,
				Pattern:    pattern,
				Protected:  protected,
				Seed:       seed,
			})
			if err != nil {
				return nil, err
			}
			guard := "off"
			if protected {
				guard = "on"
			}
			tbl.AddRow(res.Pattern, guard, report.I(res.RowsFlipped),
				report.I(res.Detected), report.I(res.Faulted), report.I(res.Silent), res.Verdict(res.RowsFlipped))
		}
	}
	return tbl, nil
}
