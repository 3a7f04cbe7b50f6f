package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ptguard/internal/fault"
	"ptguard/internal/harness"
	"ptguard/internal/report"
)

// faultsCmd runs the fault-model taxonomy campaign: every flip model
// (uniform, exact-N-bit, burst, DQ-pin, polarity, row-severity, targeted)
// crossed with the detection-only and correction-enabled Guard. A
// ground-truth oracle records every injected flip, and every Guard verdict
// lands in a confusion matrix: detected, corrected, miscorrected, or
// silent corruption.
//
//	ptguard faults -lines 2000 -models 1bit,2bit,3bit -modes correct
func faultsCmd(fs *flag.FlagSet) func() error {
	camp := newCampaignFlags(fs)
	format := formatFlag(fs)
	o := newObsFlags(fs, "trials between snapshots (0 = lines/4 when -metrics-out is set)")
	models := fs.String("models", "", "comma-separated fault.Parse model specs (empty = full taxonomy)")
	modes := fs.String("modes", "detect,correct", "comma-separated Guard modes: detect and/or correct")
	lines := fs.Int("lines", 400, "faulty PTE cachelines per (model, mode) cell")
	softK := fs.Int("soft-k", 0, "soft-match fault budget k (0 = paper's 4)")
	tag := fs.Int("tag-bits", 0, "MAC width in bits (0 = 96; small widths expose miscorrections)")
	list := fs.Bool("list-models", false, "print the supported model specs and exit")

	return func() error {
		if *list {
			for _, s := range fault.Specs() {
				fmt.Println(s)
			}
			return nil
		}
		spec := harness.FaultSpec{
			Models:     splitModels(*models),
			Modes:      splitCSV(*modes),
			Lines:      *lines,
			SoftMatchK: *softK,
			TagBits:    *tag,
			Obs:        o.spec(*lines / 4),
		}
		r, err := camp.open("faults", spec, o.debugAddr)
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

// splitModels splits a comma-separated list of model specs. Spec parameters
// themselves use commas (burst:p=0.9,run=4), so a part that is a bare
// key=value — an '=' with no ':' before it — continues the previous spec
// rather than starting a new one.
func splitModels(s string) []string {
	var out []string
	for _, part := range splitCSV(s) {
		eq, colon := strings.IndexByte(part, '='), strings.IndexByte(part, ':')
		if eq >= 0 && (colon < 0 || eq < colon) && len(out) > 0 {
			out[len(out)-1] += "," + part
			continue
		}
		out = append(out, part)
	}
	return out
}
