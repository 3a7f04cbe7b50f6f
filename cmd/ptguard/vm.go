package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ptguard/internal/attack"
	"ptguard/internal/harness"
	"ptguard/internal/report"
	"ptguard/internal/virt"
)

// vmCmd runs the inter-VM Rowhammer campaign on the nested paging
// substrate: tenant-fleet sizes crossed with PT-Guard placements (none,
// guest tables only, stage-2/EPT only, both) and attack targets (the
// victim's guest tables vs the hypervisor's stage-2 tables). Each trial
// builds a multi-tenant host, double-sided hammers the rows holding the
// victim VM's targeted table layer, then classifies every post-attack 2-D
// page walk as detected, faulted, silently corrupted, or intact.
//
//	ptguard vm -tenants 4,16,120 -placements none,both -targets guest,stage2
func vmCmd(fs *flag.FlagSet) func() error {
	camp := newCampaignFlags(fs)
	format := formatFlag(fs)
	o := newObsFlags(fs, "instructions between snapshots (0 = run-final snapshot only)")
	tenants := fs.String("tenants", "4", "comma-separated tenant-fleet sizes to sweep")
	placements := fs.String("placements", "", "comma-separated guard placements: none, guest, stage2, both (empty = all)")
	targets := fs.String("targets", "", "comma-separated attack targets: guest, stage2 (empty = both)")
	trials := fs.Int("trials", 3, "trials per (tenants, target, placement) cell")
	pages := fs.Int("pages", 0, "leaf mappings per tenant VM (0 = default 16)")
	threshold := fs.Int("threshold", 0, "charge-loss flip threshold in activations (0 = scaled default)")
	acts := fs.Int("acts", 0, "double-sided activations per hammered row (0 = scaled default)")
	correction := fs.Bool("correction", false, "enable the correction engine on guarded layers")
	list := fs.Bool("list", false, "print the guard placements and attack targets, then exit")

	return func() error {
		if *list {
			fmt.Println("placements:", strings.Join(virt.PlacementNames(), ", "))
			fmt.Println("targets:   ", strings.Join(attack.VMTargetNames(), ", "))
			return nil
		}
		fleet, err := parseInts(*tenants)
		if err != nil {
			return fmt.Errorf("-tenants: %w", err)
		}
		spec := harness.VirtSpec{
			Tenants:    fleet,
			Placements: splitCSV(*placements),
			Targets:    splitCSV(*targets),
			Trials:     *trials,
			PagesPerVM: *pages,
			Correction: *correction,
			Threshold:  *threshold,
			Acts:       *acts,
			Obs:        o.spec(0),
		}
		r, err := camp.open("vm", spec, o.debugAddr)
		if err != nil {
			return err
		}
		defer r.close()
		out, err := r.run(spec)
		if err != nil {
			return err
		}
		if err := o.writeObsOutputs(out.Runs); err != nil {
			return err
		}
		return report.EmitAll(os.Stdout, out.Tables, *format)
	}
}
