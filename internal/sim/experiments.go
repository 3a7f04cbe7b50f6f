package sim

import (
	"errors"
	"fmt"
	"math"
	"reflect"

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
// Only one machine is simulated, in the first protected mode. The guard
// never changes what the front end sees or which DRAM accesses happen,
// only the read latency, so the baseline is derived from that run (see
// unprotected), and every further protected mode is a further memory side
// of the machine: a controller with its own guard and DRAM device, served
// the same DRAM traffic (see simulate and sideResult).
func Compare(prof workload.Profile, warmup, instructions int, seed uint64, macLatency int, modes []Mode) (Comparison, error) {
	cmp, _, err := CompareObserved(prof, warmup, instructions, seed, macLatency, modes, nil)
	return cmp, err
}

// CompareObserved is Compare with observability: when obsOpts is non-nil,
// each mode's run gets a fresh Observer and the returned map carries the
// per-mode RunMetrics (final registry state, the snapshot time series, and
// the traced events). Every mode's metrics are output, so an observed
// comparison simulates every mode on its own machine, the baseline
// included, and fails unless each protected mode derives the simulated
// baseline. A nil obsOpts behaves exactly like Compare and returns a nil
// map.
func CompareObserved(prof workload.Profile, warmup, instructions int, seed uint64, macLatency int, modes []Mode, obsOpts *obs.Options) (Comparison, map[Mode]*obs.RunMetrics, error) {
	if warmup < 0 {
		return Comparison{}, nil, fmt.Errorf("sim: negative warm-up (%d instructions)", warmup)
	}
	if err := CheckModes(modes); err != nil {
		return Comparison{}, nil, err
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
	cfg := func(m Mode) Config { return Config{Mode: m, Seed: seed, MACLatencyCycles: macLatency} }
	results := make(map[Mode]Result, len(protected)+1)
	var metrics map[Mode]*obs.RunMetrics
	if obsOpts == nil {
		s, err := NewSystem(cfg(protected[0]), prof)
		if err != nil {
			return Comparison{}, nil, fmt.Errorf("%s/%s: %w", prof.Name, protected[0], err)
		}
		r, sides, err := simulate(s, warmup, instructions, protected[1:])
		if err != nil {
			return Comparison{}, nil, fmt.Errorf("%s/%s: %w", prof.Name, protected[0], err)
		}
		base, err := unprotected(r)
		if err != nil {
			return Comparison{}, nil, fmt.Errorf("%s/%s: %w", prof.Name, protected[0], err)
		}
		results[protected[0]], results[Baseline] = r, base
		for _, sd := range sides {
			results[sd.mode] = sideResult(r, base, sd)
		}
	} else {
		metrics = make(map[Mode]*obs.RunMetrics, len(protected)+1)
		for _, m := range append([]Mode{Baseline}, protected...) {
			c := cfg(m)
			o := obs.New(*obsOpts)
			c.Obs = o
			s, err := NewSystem(c, prof)
			if err == nil {
				results[m], err = measure(s, warmup, instructions)
			}
			if err != nil {
				return Comparison{}, nil, fmt.Errorf("%s/%s: %w", prof.Name, m, err)
			}
			metrics[m] = o.RunMetrics(true)
		}
	}
	base := results[Baseline]
	for _, m := range protected {
		b, err := unprotected(results[m])
		if err != nil {
			return Comparison{}, nil, fmt.Errorf("%s/%s: %w", prof.Name, m, err)
		}
		if b != base {
			return Comparison{}, nil, fmt.Errorf("%s/%s: the baseline derived from this mode differs in %s from the comparison's", prof.Name, m, firstDiff(b, base))
		}
	}
	cmp := Comparison{
		Workload:    prof.Name,
		LLCMPKI:     base.LLCMPKI,
		Results:     results,
		SlowdownPct: make(map[Mode]float64, len(protected)),
	}
	for _, m := range protected {
		var err error
		if cmp.SlowdownPct[m], err = SlowdownPercent(results[m].Cycles, base.Cycles); err != nil {
			return Comparison{}, nil, fmt.Errorf("%s/%s: %w", prof.Name, m, err)
		}
	}
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
	base.IPC = ipc(base.Instructions, base.Cycles)
	return base, nil
}

// sideResult composes the Result a machine in sd's mode reports from the
// run r of the machine that sd was a further memory side of, and the
// baseline base derived from r. sd was served every DRAM access of r's
// machine and answered every walk read with the page tables' line, as r's
// own side did (or the run would have diverged), so a machine in sd's mode
// would have made the same accesses in the same order: it keeps r's
// front-end fields, takes sd's controller and guard counters, and stalls
// the in-order core for base's cycles plus sd's read-MAC cycles. Like the
// subtraction in unprotected, the sum is exact.
func sideResult(r, base Result, sd side) Result {
	r.Mode, r.Ctrl, r.Guard = sd.mode, sd.ctrl.Stats(), sd.ctrl.Guard().Counters()
	r.Cycles = base.Cycles + float64(r.Ctrl.ReadMACCycles)
	r.IPC = ipc(r.Instructions, r.Cycles)
	return r
}

// ipc is instructions per cycle as cpu.Core.IPC computes it.
func ipc(instructions uint64, cycles float64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(instructions) / cycles
}

// firstDiff names the first field, in declaration order and with nested
// structs spelled out (Ctrl.ReadMACCycles), in which a and b differ, or
// returns "" when they are equal.
func firstDiff(a, b Result) string {
	var diff func(path string, x, y reflect.Value) string
	diff = func(path string, x, y reflect.Value) string {
		if x.Kind() != reflect.Struct {
			if !x.Equal(y) {
				return path
			}
			return ""
		}
		for i := 0; i < x.NumField(); i++ {
			name := x.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			if d := diff(name, x.Field(i), y.Field(i)); d != "" {
				return d
			}
		}
		return ""
	}
	return diff("", reflect.ValueOf(a), reflect.ValueOf(b))
}

// simulate measures the machine s (see measure) with its memory side
// pipelined, beside one further memory side per mode of further: a
// controller with its own guard and DRAM device, built as s's is for that
// mode and flushed the same page tables. s must be a fresh machine as
// Compare builds it (see usePipeline). It returns the further sides in the
// order of further.
func simulate(s *System, warmup, instructions int, further []Mode) (Result, []side, error) {
	sides := []side{{s.cfg.Mode, s.ctrl}}
	for _, m := range further {
		cfg := s.cfg
		cfg.Mode = m
		c, err := newController(cfg)
		if err == nil {
			err = s.flushTables(c)
		}
		if err != nil {
			return Result{}, nil, fmt.Errorf("%s side: %w", m, err)
		}
		sides = append(sides, side{m, c})
	}
	s.usePipeline(sides)
	r, err := measure(s, warmup, instructions)
	return r, sides[1:], err
}

// measure runs warmup instructions on s, resets every counter, and
// measures the next instructions.
func measure(s *System, warmup, instructions int) (Result, error) {
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
