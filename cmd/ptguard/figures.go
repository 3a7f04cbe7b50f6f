package main

import (
	"flag"
	"fmt"
	"os"

	"ptguard/internal/attack"
	"ptguard/internal/ostable"
	"ptguard/internal/pte"
	"ptguard/internal/report"
)

// The figure subcommands that are not sweep sections: profile (Fig. 8)
// and trace (the §VI-F trace-driven Fig. 9). Each runs one experiment
// seeded straight from -seed. Fig. 6, Fig. 7 and Fig. 9 are sections of
// `ptguard sweep`.

// profileCmd regenerates Fig. 8: the distribution of PTE PFN values (zero /
// contiguous / non-contiguous) across a synthetic process population
// calibrated to the paper's 623-process Ubuntu measurement (64.13% zero,
// 23.73% contiguous, >99% flag uniformity). -format csv lists the
// per-process rows instead of the summary.
func profileCmd(fs *flag.FlagSet) func() error {
	processes := fs.Int("processes", 623, "number of processes to synthesise")
	memGB := fs.Int("mem-gb", 16, "physical memory size in GiB")
	seed := seedFlag(fs)
	format := formatFlag(fs)

	return func() error {
		frames := uint64(*memGB) << 30 / pte.PageSize
		alloc, err := ostable.NewFrameAllocator(4096, frames-4096)
		if err != nil {
			return err
		}
		cfg := ostable.DefaultSynthConfig()
		cfg.Seed = *seed
		pop, err := ostable.NewPopulation(cfg, alloc)
		if err != nil {
			return err
		}
		perProc, err := ostable.RunPopulation(pop, *processes)
		if err != nil {
			return err
		}
		sum, err := ostable.Summarize(perProc)
		if err != nil {
			return err
		}

		if *format == report.FormatCSV {
			tbl := report.New("", "rank", "zero", "contiguous", "non-contiguous")
			for i, p := range sum.PerProcess {
				tbl.AddRow(report.I(i+1), report.Pct(p.ZeroPct()),
					report.Pct(p.ContiguousPct()), report.Pct(p.NonContiguousPct()))
			}
			return report.Emit(os.Stdout, tbl, report.FormatCSV)
		}
		tbl := report.New(
			fmt.Sprintf("Fig. 8 — PTE PFN categories over %d processes (%d PTEs)",
				sum.Processes, sum.TotalPTEs),
			"category", "mean", "std err", "paper")
		tbl.AddRow("zero PFNs", report.Pct(sum.ZeroMean), report.F(sum.ZeroStdErr, 3), "64.13%")
		tbl.AddRow("contiguous PFNs", report.Pct(sum.ContigMean), report.F(sum.ContigSE, 3), "23.73%")
		tbl.AddRow("non-contiguous PFNs", report.Pct(sum.NonContMean), "", "12.14%")
		tbl.AddRow("flag-uniform lines", report.Pct(sum.FlagUniform), "", ">99%")
		return report.Emit(os.Stdout, tbl, *format)
	}
}

// traceCmd runs the trace-driven variant of the Fig. 9 correction
// experiment: page-table-walk traces are extracted from the full-system
// simulation (the paper's §VI-F methodology) and the traced PTE cachelines
// receive uniform bit-flips.
func traceCmd(fs *flag.FlagSet) func() error {
	name := fs.String("workload", "mcf", "benchmark whose walk trace to use")
	instr := fs.Int("instructions", 300_000, "trace-collection window")
	trials := fs.Int("trials", 500, "faulty lines per probability")
	seed := seedFlag(fs)
	format := formatFlag(fs)

	return func() error {
		tbl := report.New(
			fmt.Sprintf("Fig. 9 (trace-driven) — %s walk trace, %d instructions", *name, *instr),
			"p_flip", "trace lines", "erroneous", "corrected %", "coverage %", "miscorrected")
		for _, p := range attack.Fig9FlipProbs {
			res, err := attack.RunTraceCorrection(attack.TraceCorrectionConfig{
				Workload:     *name,
				Instructions: *instr,
				FlipProb:     p,
				Trials:       *trials,
				Seed:         *seed,
			})
			if err != nil {
				return err
			}
			tbl.AddRow(fmt.Sprintf("1/%g", 1/p), report.I(res.TraceLines), report.I(res.Erroneous),
				report.Pct(res.CorrectedPct()), report.Pct(res.CoveragePct()),
				report.I(res.Miscorrected))
			fmt.Fprintf(os.Stderr, ".")
		}
		fmt.Fprintln(os.Stderr)
		return report.Emit(os.Stdout, tbl, *format)
	}
}
