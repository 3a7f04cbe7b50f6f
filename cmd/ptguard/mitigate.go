package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ptguard/internal/dram"
	"ptguard/internal/harness"
	"ptguard/internal/mitigate"
	"ptguard/internal/report"
)

// mitigateCmd runs the mitigation head-to-head campaign: every in-DRAM
// mitigation plugin (none, trr, softtrr, graphene, para, oracle) crossed
// with every TRR-aware attack pattern (classic, half-double, many-sided)
// with PT-Guard off and on. Each cell plays the pattern against the
// victim's page-table row through the mitigation and classifies every
// victim-page walk — the matrix the paper's §II-B argument rests on:
// dedicated trackers fall to tracker-aware patterns one by one, while
// PT-Guard's integrity check is pattern-agnostic.
//
//	ptguard mitigate -mitigations trr,graphene -patterns classic,half-double -trials 5
func mitigateCmd(fs *flag.FlagSet) func() error {
	camp := newCampaignFlags(fs)
	format := formatFlag(fs)
	mitigations := fs.String("mitigations", "", "comma-separated mitigation plugins (empty = whole registry)")
	patterns := fs.String("patterns", "", "comma-separated attack patterns (empty = all)")
	guard := fs.String("guard", "off,on", "comma-separated PT-Guard modes: off and/or on")
	trials := fs.Int("trials", 3, "trials per matrix cell")
	correction := fs.Bool("correction", false, "enable the §VI correction engine on protected trials")
	threshold := fs.Int("threshold", 0, "scaled charge-loss flip threshold (0 = 64)")
	sampler := fs.Int("sampler", 0, "tracker detection threshold (0 = threshold/2)")
	tableSize := fs.Int("table-size", 0, "tracker table entries (0 = per-tracker default)")
	acts := fs.Int("acts", 0, "aggressor activations per trial (0 = 40000)")
	windowActs := fs.Int("window-acts", 0, "auto-refresh period in activations (0 = 8192, negative disables)")
	budget := fs.Int("budget", 0, "mitigative refreshes allowed per scaled tREFI (0 = unlimited)")
	list := fs.Bool("list", false, "print the registered mitigations and patterns and exit")

	return func() error {
		if *list {
			fmt.Println("mitigations:", strings.Join(mitigate.Names(), " "))
			fmt.Println("patterns:   ", strings.Join(dram.PatternNames(), " "))
			return nil
		}
		spec := harness.MitigateSpec{
			Mitigations:     splitCSV(*mitigations),
			Patterns:        splitCSV(*patterns),
			Guard:           splitCSV(*guard),
			Trials:          *trials,
			Correction:      *correction,
			Threshold:       *threshold,
			Sampler:         *sampler,
			TableSize:       *tableSize,
			Acts:            *acts,
			WindowActs:      *windowActs,
			BudgetPerWindow: *budget,
		}
		r, err := camp.open("mitigate", spec, "")
		if err != nil {
			return err
		}
		defer r.close()
		out, err := r.run(spec)
		if err != nil {
			return err
		}
		return report.EmitAll(os.Stdout, out.Tables, *format)
	}
}
