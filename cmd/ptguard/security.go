package main

import (
	"flag"
	"fmt"
	"os"

	"ptguard/internal/mac"
	"ptguard/internal/report"
)

// securityCmd evaluates the analytic security model of §VI-E: Eq. 1
// (effective MAC strength under fault-tolerant matching and correction
// guesses) and Eq. 2 (uncorrectable-MAC probability), plus the attack-time
// estimates of §IV-G. The empirical counterpart, each in-DRAM mitigation
// against every attack pattern with PT-Guard off and on, is `ptguard
// mitigate`.
func securityCmd(fs *flag.FlagSet) func() error {
	n := fs.Int("mac-bits", 96, "MAC width n")
	gMax := fs.Int("gmax", mac.GMaxPaper, "maximum correction guesses")
	attemptNs := fs.Float64("attempt-ns", 50, "nanoseconds per attack attempt")
	format := formatFlag(fs)

	return func() error {
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

		return report.EmitAll(os.Stdout, []*report.Table{eq1, eq2}, *format)
	}
}
