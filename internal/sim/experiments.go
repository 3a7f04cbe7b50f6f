package sim

import (
	"errors"
	"fmt"
	"math"

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

// Compare runs one workload under the baseline and each requested mode with
// identical seeds and instruction counts. Each run warms caches and TLB for
// `warmup` instructions before the measured window, mirroring the paper's
// fast-forward to a representative region (§III).
func Compare(prof workload.Profile, warmup, instructions int, seed uint64, macLatency int, modes []Mode) (Comparison, error) {
	cmp, _, err := CompareObserved(prof, warmup, instructions, seed, macLatency, modes, nil)
	return cmp, err
}

// CompareObserved is Compare with observability: when obsOpts is non-nil,
// each mode's run (including the baseline) gets a fresh Observer and the
// returned map carries the per-mode RunMetrics (final registry state, the
// snapshot time series, and the traced events). A nil obsOpts behaves
// exactly like Compare and returns a nil map.
func CompareObserved(prof workload.Profile, warmup, instructions int, seed uint64, macLatency int, modes []Mode, obsOpts *obs.Options) (Comparison, map[Mode]*obs.RunMetrics, error) {
	if len(modes) == 0 {
		return Comparison{}, nil, errors.New("sim: no modes requested")
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
	base, err := observed(Config{Mode: Baseline, Seed: seed})
	if err != nil {
		return Comparison{}, nil, err
	}
	cmp := Comparison{
		Workload:    prof.Name,
		LLCMPKI:     base.LLCMPKI,
		Results:     map[Mode]Result{Baseline: base},
		SlowdownPct: map[Mode]float64{},
	}
	for _, m := range modes {
		if m == Baseline {
			continue
		}
		r, rerr := observed(Config{Mode: m, Seed: seed, MACLatencyCycles: macLatency})
		if rerr != nil {
			return Comparison{}, nil, fmt.Errorf("%s/%s: %w", prof.Name, m, rerr)
		}
		cmp.Results[m] = r
		sl, serr := SlowdownPercent(r.Cycles, base.Cycles)
		if serr != nil {
			return Comparison{}, nil, fmt.Errorf("%s/%s: %w", prof.Name, m, serr)
		}
		cmp.SlowdownPct[m] = sl
	}
	return cmp, metrics, nil
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
