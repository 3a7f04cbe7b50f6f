package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"ptguard/internal/harness"
	"ptguard/internal/report"
)

// sweepCmd runs the paper's evaluation campaign — the Fig. 6/7 slowdown
// grid, the §VII-C multicore mixes, the DESIGN.md §5 ablations and the
// Fig. 9 correction sweep, plus the opt-in mitigation matrix — as one
// declarative spec per section fanned out over the harness. The report is
// byte-identical at any worker count or backend, and -journal resumes a
// killed run where it left off.
func sweepCmd(fs *flag.FlagSet) func() error {
	camp := newCampaignFlags(fs)
	format := formatFlag(fs)
	o := newObsFlags(fs, "slowdown: instructions between snapshots (0 = instructions/4 when -metrics-out is set)")
	sections := fs.String("sections", "slowdown,multicore,ablation,correction",
		"comma-separated campaign sections to run (also available: mitigate)")

	// Fig. 6/7 grid.
	warmup := fs.Int("warmup", 200_000, "slowdown: warm-up instructions per run")
	instr := fs.Int("instructions", 400_000, "slowdown: measured instructions per run")
	macLats := fs.String("mac-latencies", "10", "slowdown: comma-separated MAC latency sweep (Fig. 7)")
	workloads := fs.String("workloads", "", "slowdown: comma-separated benchmark filter (empty = all 25)")

	// §VII-C mixes.
	mcWarmup := fs.Int("mc-warmup", 100_000, "multicore: warm-up instructions per core")
	mcInstr := fs.Int("mc-instructions", 200_000, "multicore: measured instructions per core")
	sameN := fs.Int("same", 18, "multicore: SAME mixes (paper: 18)")
	mixN := fs.Int("mix", 16, "multicore: MIX mixes (paper: 16)")
	mcModel := fs.String("mc-model", "shared", "multicore: contention model (shared or analytic)")

	// Ablations and Fig. 9.
	ablLines := fs.Int("ablation-lines", 400, "ablation: faulty lines per configuration")
	flipProb := fs.Float64("flip-prob", 1.0/128, "ablation: per-bit flip probability")
	corLines := fs.Int("correction-lines", 400, "correction: faulty lines per probability")

	// Mitigation head-to-head (opt-in via -sections mitigate).
	mitigation := fs.String("mitigation", "", "mitigate: comma-separated mitigation plugins from the internal/mitigate registry (empty = all)")
	mitTrials := fs.Int("mitigate-trials", 3, "mitigate: trials per matrix cell")
	mitActs := fs.Int("mitigate-acts", 0, "mitigate: aggressor activations per trial (0 = 40000)")

	return func() error {
		lats, err := parseInts(*macLats)
		if err != nil {
			return fmt.Errorf("-mac-latencies: %w", err)
		}
		// The fingerprint digests every section's spec, not just the
		// selected ones, because all sections share one journal file.
		specs := struct {
			Slowdown   harness.SlowdownSpec
			Multicore  harness.MulticoreSpec
			Ablation   harness.AblationSpec
			Correction harness.CorrectionSpec
			Mitigate   harness.MitigateSpec
		}{
			Slowdown: harness.SlowdownSpec{
				Workloads: splitCSV(*workloads), Warmup: *warmup, Instructions: *instr,
				MACLatencies: lats, Obs: o.spec(*instr / 4),
			},
			Multicore: harness.MulticoreSpec{
				SameMixes: *sameN, MixMixes: *mixN,
				Warmup: *mcWarmup, Instructions: *mcInstr, Model: *mcModel,
			},
			Ablation:   harness.AblationSpec{Lines: *ablLines, FlipProb: *flipProb},
			Correction: harness.CorrectionSpec{Lines: *corLines},
			Mitigate: harness.MitigateSpec{
				Mitigations: splitCSV(*mitigation), Trials: *mitTrials, Acts: *mitActs,
			},
		}
		// Resolve every section before any campaign starts, so a typo
		// fails before work (and before the journal is created).
		known := []harness.Spec{specs.Slowdown, specs.Multicore, specs.Ablation, specs.Correction, specs.Mitigate}
		var selected []harness.Spec
		for _, section := range splitCSV(*sections) {
			i := slices.IndexFunc(known, func(s harness.Spec) bool { return s.Kind() == section })
			if i < 0 {
				return fmt.Errorf("unknown section %q (want slowdown, multicore, ablation, correction or mitigate)", section)
			}
			selected = append(selected, known[i])
		}
		r, err := camp.open("sweep-v2", specs, o.debugAddr)
		if err != nil {
			return err
		}
		defer r.close()

		var all harness.Output
		for _, spec := range selected {
			out, err := r.run(spec)
			if err != nil {
				return fmt.Errorf("section %s: %w", spec.Kind(), err)
			}
			all.Tables = append(all.Tables, out.Tables...)
			all.Runs = append(all.Runs, out.Runs...)
		}
		if err := o.writeObsOutputs(all.Runs); err != nil {
			return err
		}
		return report.EmitAll(os.Stdout, all.Tables, *format)
	}
}
