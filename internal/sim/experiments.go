package sim

import (
	"errors"
	"fmt"
	"math"

	"ptguard/internal/memctrl"
	"ptguard/internal/obs"
	"ptguard/internal/stats"
	"ptguard/internal/workload"
)

// SlowdownPercent returns 100*(cycles/baseCycles - 1), the Fig. 6/7
// measurement unit. A degenerate baseline (zero, negative, NaN or Inf
// cycles) is a descriptive error instead of a NaN that would silently
// poison every downstream mean and report.
func SlowdownPercent(cycles, baseCycles float64) (float64, error) {
	if baseCycles <= 0 || math.IsNaN(baseCycles) || math.IsInf(baseCycles, 0) {
		return 0, fmt.Errorf("sim: baseline run reported non-positive cycle count %g; cannot normalize slowdown", baseCycles)
	}
	if cycles < 0 || math.IsNaN(cycles) || math.IsInf(cycles, 0) {
		return 0, fmt.Errorf("sim: run reported invalid cycle count %g", cycles)
	}
	return 100 * (cycles/baseCycles - 1), nil
}

// Comparison holds one workload's results across modes, normalized to the
// baseline (the Fig. 6/7 measurement unit).
type Comparison struct {
	Workload string
	LLCMPKI  float64
	Results  map[Mode]Result
	// SlowdownPct[m] = 100 * (cycles_m/cycles_baseline - 1).
	SlowdownPct map[Mode]float64
}

// Compare runs one workload under each requested protection mode with
// identical seeds and instruction counts, and reports each mode's slowdown
// against the unprotected baseline. Each run warms caches and TLB for
// `warmup` instructions before the measured window, mirroring the paper's
// fast-forward to a representative region (§III).
//
// The baseline is not simulated: it is derived from the first protected
// run (see unprotected), because the guard never changes what the front
// end sees or which DRAM accesses happen, only the read latency.
func Compare(prof workload.Profile, warmup, instructions int, seed uint64, macLatency int, modes []Mode) (Comparison, error) {
	cmp, _, err := CompareObserved(prof, warmup, instructions, seed, macLatency, modes, nil)
	return cmp, err
}

// CompareObserved is Compare with observability: when obsOpts is non-nil,
// each mode's run gets a fresh Observer and the returned map carries the
// per-mode RunMetrics (final registry state, the snapshot time series, and
// the traced events). The baseline's metrics are output too, so an observed
// comparison also simulates the baseline, and fails if that run's Result
// differs from the derived one. A nil obsOpts behaves exactly like Compare
// and returns a nil map.
func CompareObserved(prof workload.Profile, warmup, instructions int, seed uint64, macLatency int, modes []Mode, obsOpts *obs.Options) (Comparison, map[Mode]*obs.RunMetrics, error) {
	if warmup < 0 {
		return Comparison{}, nil, fmt.Errorf("sim: negative warm-up (%d instructions)", warmup)
	}
	var protected []Mode
	for _, m := range modes {
		if m != Baseline {
			protected = append(protected, m)
		}
	}
	if len(protected) == 0 {
		return Comparison{}, nil, errors.New("sim: no protected mode requested")
	}
	var metrics map[Mode]*obs.RunMetrics
	observed := func(cfg Config) (Result, error) {
		var o *obs.Observer
		if obsOpts != nil {
			o = obs.New(*obsOpts)
			cfg.Obs = o
		}
		r, err := runOne(cfg, prof, warmup, instructions)
		if err == nil && o != nil {
			if metrics == nil {
				metrics = map[Mode]*obs.RunMetrics{}
			}
			metrics[cfg.Mode] = o.RunMetrics(true)
		}
		return r, err
	}
	cmp := Comparison{
		Workload:    prof.Name,
		Results:     make(map[Mode]Result, len(protected)+1),
		SlowdownPct: make(map[Mode]float64, len(protected)),
	}
	var base Result
	for i, m := range protected {
		r, err := observed(Config{Mode: m, Seed: seed, MACLatencyCycles: macLatency})
		if err != nil {
			return Comparison{}, nil, fmt.Errorf("%s/%s: %w", prof.Name, m, err)
		}
		b, err := unprotected(r)
		if err != nil {
			return Comparison{}, nil, fmt.Errorf("%s/%s: %w", prof.Name, m, err)
		}
		if i == 0 {
			base = b
		} else if b != base {
			return Comparison{}, nil, fmt.Errorf("%s: %s and %s derive different baselines", prof.Name, protected[0], m)
		}
		sl, err := SlowdownPercent(r.Cycles, base.Cycles)
		if err != nil {
			return Comparison{}, nil, fmt.Errorf("%s/%s: %w", prof.Name, m, err)
		}
		cmp.Results[m], cmp.SlowdownPct[m] = r, sl
	}
	if obsOpts != nil {
		r, err := observed(Config{Mode: Baseline, Seed: seed})
		if err != nil {
			return Comparison{}, nil, fmt.Errorf("%s/%s: %w", prof.Name, Baseline, err)
		}
		if r != base {
			return Comparison{}, nil, fmt.Errorf("%s: simulated baseline differs from the one derived from %s", prof.Name, protected[0])
		}
	}
	cmp.Results[Baseline], cmp.LLCMPKI = base, base.LLCMPKI
	return cmp, metrics, nil
}

// unprotected derives the Result the unprotected baseline reports from the
// protected run r of the same workload, seed and instruction counts. The
// guard changes neither what the front end sees (a verified walk returns
// the stripped, architectural line) nor which DRAM accesses happen or in
// what order; it only adds MAC latency to reads, which the in-order core
// stalls on, and to posted writes, which it does not. So the baseline keeps
// r's front-end fields and loses the read-MAC cycles, and its controller
// loses the MAC cycles. The in-order core adds only integers, so the float64
// cycle count is exact and the derivation bit-identical to a simulated
// baseline. It needs a run with no integrity failure, correction, CTB-full
// event or recovery, any of which a comparison (which injects no fault)
// never has.
func unprotected(r Result) (Result, error) {
	for _, c := range []struct {
		name string
		n    uint64
	}{
		{"check failures", r.CheckFails},
		{"controller check failures", r.Ctrl.CheckFailures},
		{"corrected reads", r.Ctrl.CorrectedReads},
		{"CTB-full events", r.Ctrl.CollisionErrors},
		{"recovery events", r.Recovery.Raised},
	} {
		if c.n != 0 {
			return Result{}, fmt.Errorf("sim: %d %s; no baseline can be derived from this run", c.n, c.name)
		}
	}
	base := Result{
		Workload:     r.Workload,
		Mode:         Baseline,
		Instructions: r.Instructions,
		Cycles:       r.Cycles - float64(r.Ctrl.ReadMACCycles),
		LLCMPKI:      r.LLCMPKI,
		TLBMissRate:  r.TLBMissRate,
		PageWalks:    r.PageWalks,
		Churns:       r.Churns,
		Ctrl: memctrl.Stats{
			Reads:            r.Ctrl.Reads,
			Writes:           r.Ctrl.Writes,
			TotalReadCycles:  r.Ctrl.TotalReadCycles - r.Ctrl.ReadMACCycles,
			TotalWriteCycles: r.Ctrl.TotalWriteCycles - r.Ctrl.WriteMACCycles,
		},
	}
	if base.Cycles != 0 {
		// As cpu.Core.IPC computes it.
		base.IPC = float64(base.Instructions) / base.Cycles
	}
	return base, nil
}

func runOne(cfg Config, prof workload.Profile, warmup, instructions int) (Result, error) {
	s, err := NewSystem(cfg, prof)
	if err != nil {
		return Result{}, err
	}
	if warmup > 0 {
		if _, err := s.Run(warmup); err != nil {
			return Result{}, err
		}
		s.ResetStats()
	}
	return s.Run(instructions)
}

// SuiteSummary aggregates per-workload slowdowns (Fig. 6/7's GMEAN/AMEAN
// rows and worst case).
type SuiteSummary struct {
	Mode        Mode
	MeanPct     float64
	GeoMeanIPC  float64 // geometric mean of normalized IPC
	WorstPct    float64
	WorstName   string
	PerWorkload []Comparison
}

// Summarize reduces comparisons for one mode.
func Summarize(cmps []Comparison, mode Mode) (SuiteSummary, error) {
	if len(cmps) == 0 {
		return SuiteSummary{}, errors.New("sim: no comparisons")
	}
	sl := make([]float64, len(cmps))
	normIPC := make([]float64, len(cmps))
	sum := SuiteSummary{Mode: mode, PerWorkload: cmps}
	for i, c := range cmps {
		s, ok := c.SlowdownPct[mode]
		if !ok {
			return SuiteSummary{}, fmt.Errorf("sim: %s missing mode %s", c.Workload, mode)
		}
		sl[i] = s
		normIPC[i] = 1 / (1 + s/100)
		if s > sum.WorstPct || i == 0 {
			sum.WorstPct, sum.WorstName = s, c.Workload
		}
	}
	var err error
	if sum.MeanPct, err = stats.Mean(sl); err != nil {
		return SuiteSummary{}, err
	}
	if sum.GeoMeanIPC, err = stats.GeoMean(normIPC); err != nil {
		return SuiteSummary{}, err
	}
	return sum, nil
}
