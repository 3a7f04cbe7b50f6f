package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ptguard/internal/attack"
	"ptguard/internal/ostable"
	"ptguard/internal/pte"
	"ptguard/internal/report"
	"ptguard/internal/sim"
	"ptguard/internal/workload"
)

// The single-table figure subcommands. Each seeds its experiment directly
// from -seed rather than through the harness's per-job seed derivation,
// which is why they are not sweep sections: their numbers would change.

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

// correctCmd regenerates Fig. 9: the percentage of faulty PTE cachelines
// the best-effort correction engine repairs at each bit-flip probability,
// alongside the 100%-coverage and zero-miscorrection claims.
func correctCmd(fs *flag.FlagSet) func() error {
	lines := fs.Int("lines", 1000, "faulty PTE cachelines per probability")
	seed := seedFlag(fs)
	probs := fs.String("probs", "1/512,1/256,1/128", "comma-separated flip probabilities (fractions)")
	softK := fs.Int("soft-k", 4, "tolerated MAC bit-faults (soft match)")
	format := formatFlag(fs)

	return func() error {
		ps, err := parseProbs(*probs)
		if err != nil {
			return fmt.Errorf("-probs: %w", err)
		}
		tbl := report.New("Fig. 9 — best-effort correction of faulty PTE cachelines",
			"p_flip", "erroneous", "corrected", "detected", "miscorrected", "corrected %", "coverage %", "guesses")
		for _, p := range ps {
			res, err := attack.RunCorrection(attack.CorrectionConfig{
				FlipProb:   p.value,
				Lines:      *lines,
				Seed:       *seed,
				SoftMatchK: *softK,
			})
			if err != nil {
				return fmt.Errorf("correction sweep at p=%s: %w", p.label, err)
			}
			tbl.AddRow(p.label,
				report.I(res.Erroneous), report.I(res.Corrected),
				report.I(res.Detected), report.I(res.Miscorrected),
				report.Pct(res.CorrectedPct()), report.Pct(res.CoveragePct()),
				report.U(res.Guesses))
			fmt.Fprintf(os.Stderr, ".")
		}
		fmt.Fprintln(os.Stderr)
		return report.Emit(os.Stdout, tbl, *format)
	}
}

type prob struct {
	label string
	value float64
}

func parseProbs(s string) ([]prob, error) {
	parts := strings.Split(s, ",")
	out := make([]prob, 0, len(parts))
	for _, raw := range parts {
		raw = strings.TrimSpace(raw)
		var v float64
		if num, den, ok := strings.Cut(raw, "/"); ok {
			n, err1 := strconv.ParseFloat(num, 64)
			d, err2 := strconv.ParseFloat(den, 64)
			if err1 != nil || err2 != nil || d == 0 {
				return nil, fmt.Errorf("invalid probability %q", raw)
			}
			v = n / d
		} else {
			f, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				return nil, fmt.Errorf("invalid probability %q", raw)
			}
			v = f
		}
		if v <= 0 || v >= 1 {
			return nil, fmt.Errorf("probability %q outside (0, 1)", raw)
		}
		out = append(out, prob{label: raw, value: v})
	}
	return out, nil
}

// latencyCmd regenerates Fig. 7: average and worst-case slowdown of
// PT-Guard and Optimized PT-Guard as the MAC computation latency sweeps
// from 5 to 20 cycles.
func latencyCmd(fs *flag.FlagSet) func() error {
	warmup := fs.Int("warmup", 150_000, "warm-up instructions per run")
	instr := fs.Int("instructions", 300_000, "measured instructions per run")
	seed := seedFlag(fs)
	latencies := fs.String("latencies", "5,10,15,20", "comma-separated MAC latencies (cycles)")
	format := formatFlag(fs)

	return func() error {
		lats, err := parseInts(*latencies)
		for _, lat := range lats {
			if lat <= 0 {
				err = fmt.Errorf("latency %d cycles must be positive", lat)
			}
		}
		if err != nil {
			return fmt.Errorf("-latencies: %w", err)
		}
		modes := []sim.Mode{sim.PTGuard, sim.PTGuardOptimized}
		tbl := report.New("Fig. 7 — slowdown vs MAC computation latency",
			"MAC latency", "ptguard avg", "ptguard worst", "optimized avg", "optimized worst")
		for _, lat := range lats {
			cmps := make([]sim.Comparison, 0, 25)
			for _, prof := range workload.Profiles() {
				cmp, err := sim.Compare(prof, *warmup, *instr, *seed, lat, modes)
				if err != nil {
					return err
				}
				cmps = append(cmps, cmp)
				fmt.Fprintf(os.Stderr, ".")
			}
			row := []string{fmt.Sprintf("%d cycles", lat)}
			for _, m := range modes {
				sum, err := sim.Summarize(cmps, m)
				if err != nil {
					return err
				}
				row = append(row, report.Pct(sum.MeanPct), report.Pct(sum.WorstPct))
			}
			tbl.AddRow(row...)
		}
		fmt.Fprintln(os.Stderr)
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
		for _, p := range []struct {
			label string
			v     float64
		}{
			{label: "1/512", v: 1.0 / 512},
			{label: "1/256", v: 1.0 / 256},
			{label: "1/128", v: 1.0 / 128},
		} {
			res, err := sim.RunTraceCorrection(sim.TraceCorrectionConfig{
				Workload:     *name,
				Instructions: *instr,
				FlipProb:     p.v,
				Trials:       *trials,
				Seed:         *seed,
			})
			if err != nil {
				return err
			}
			tbl.AddRow(p.label, report.I(res.TraceLines), report.I(res.Erroneous),
				report.Pct(res.CorrectedPct()), report.Pct(res.CoveragePct()),
				report.I(res.Miscorrected))
			fmt.Fprintf(os.Stderr, ".")
		}
		fmt.Fprintln(os.Stderr)
		return report.Emit(os.Stdout, tbl, *format)
	}
}
