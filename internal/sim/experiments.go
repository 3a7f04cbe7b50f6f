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
// Only the first protected mode's machine is simulated. The guard never
// changes what the front end sees or which DRAM accesses happen, only the
// read latency, so the baseline is derived from that run (see unprotected),
// and every further protected mode runs as a mirror controller on the same
// DRAM traffic (see mirrored).
func Compare(prof workload.Profile, warmup, instructions int, seed uint64, macLatency int, modes []Mode) (Comparison, error) {
	cmp, _, err := CompareObserved(prof, warmup, instructions, seed, macLatency, modes, nil)
	return cmp, err
}

// CompareObserved is Compare with observability: when obsOpts is non-nil,
// each mode's run gets a fresh Observer and the returned map carries the
// per-mode RunMetrics (final registry state, the snapshot time series, and
// the traced events). Every mode's metrics are output, so an observed
// comparison also simulates the baseline and each mirrored mode on its own
// machine, and fails if such a run's Result differs from the derived or
// mirrored one. A nil obsOpts behaves exactly like Compare and returns a
// nil map.
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
	var metrics map[Mode]*obs.RunMetrics
	observed := func(m Mode, mirrors []Mode) (Result, []*memctrl.Controller, error) {
		cfg := Config{Mode: m, Seed: seed, MACLatencyCycles: macLatency}
		var o *obs.Observer
		if obsOpts != nil {
			o = obs.New(*obsOpts)
			cfg.Obs = o
		}
		r, mcs, err := simulate(cfg, prof, warmup, instructions, mirrors)
		if err != nil {
			return Result{}, nil, fmt.Errorf("%s/%s: %w", prof.Name, m, err)
		}
		if o != nil {
			if metrics == nil {
				metrics = map[Mode]*obs.RunMetrics{}
			}
			metrics[m] = o.RunMetrics(true)
		}
		return r, mcs, nil
	}
	r, mcs, err := observed(protected[0], protected[1:])
	if err != nil {
		return Comparison{}, nil, err
	}
	base, err := unprotected(r)
	if err != nil {
		return Comparison{}, nil, fmt.Errorf("%s/%s: %w", prof.Name, protected[0], err)
	}
	results := make(map[Mode]Result, len(protected)+1)
	results[protected[0]] = r
	for i, m := range protected[1:] {
		mr := mirrored(r, base, m, mcs[i])
		b, err := unprotected(mr)
		if err != nil {
			return Comparison{}, nil, fmt.Errorf("%s/%s: %w", prof.Name, m, err)
		}
		if b != base {
			return Comparison{}, nil, fmt.Errorf("%s: %s and %s derive different baselines (%s)", prof.Name, protected[0], m, firstDiff(b, base))
		}
		results[m] = mr
	}
	results[Baseline] = base
	if obsOpts != nil {
		for _, m := range append([]Mode{Baseline}, protected[1:]...) {
			sr, _, err := observed(m, nil)
			if err != nil {
				return Comparison{}, nil, err
			}
			if sr != results[m] {
				return Comparison{}, nil, fmt.Errorf("%s/%s: the machine simulated on its own differs in %s from the result derived from %s", prof.Name, m, firstDiff(sr, results[m]), protected[0])
			}
		}
	}
	cmp := Comparison{
		Workload:    prof.Name,
		LLCMPKI:     base.LLCMPKI,
		Results:     results,
		SlowdownPct: make(map[Mode]float64, len(protected)),
	}
	for _, m := range protected {
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

// mirrored composes the Result a machine in mode m reports from the run r
// of the machine that c mirrored, and the baseline base derived from r.
// Running on the same DRAM traffic, c saw every access of r's machine and
// answered each as its controller did (Diverged is nil), so a machine in
// mode m would have made the same accesses in the same order: it keeps
// r's front-end fields, takes c's controller and guard counters, and
// stalls the in-order core for base's cycles plus c's read-MAC cycles.
// Like the subtraction in unprotected, the sum is exact.
func mirrored(r, base Result, m Mode, c *memctrl.Controller) Result {
	r.Mode, r.Ctrl, r.Guard = m, c.Stats(), c.Guard().Counters()
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

// simulate builds cfg's machine with one mirror controller per mode of
// mirrors (newMirroredSystem) and measures it with its memory side
// pipelined (measure).
func simulate(cfg Config, prof workload.Profile, warmup, instructions int, mirrors []Mode) (Result, []*memctrl.Controller, error) {
	return measure(func() (*System, []*memctrl.Controller, error) {
		return newMirroredSystem(cfg, prof, mirrors)
	}, warmup, instructions, true)
}

// measure builds a machine and its mirrors with build, runs warmup
// instructions, resets every counter, mirrors included, and measures the
// next instructions. A mirror that diverged is an error. With pipelined
// set, the memory side runs on its own goroutine where the machine allows
// it (usePipeline), and a run that diverged is built and run again
// sequentially, so the Result and error are always the sequential
// machine's.
func measure(build func() (*System, []*memctrl.Controller, error), warmup, instructions int, pipelined bool) (Result, []*memctrl.Controller, error) {
	s, mcs, err := build()
	if err != nil {
		return Result{}, nil, err
	}
	if pipelined {
		s.usePipeline()
	}
	if warmup > 0 {
		if _, err = s.Run(warmup); err == nil {
			s.ResetStats()
		}
	}
	var r Result
	if err == nil {
		r, err = s.Run(instructions)
	}
	if errors.Is(err, errDiverged) {
		return measure(build, warmup, instructions, false)
	}
	if err == nil {
		err = s.ctrl.Diverged()
	}
	return r, mcs, err
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
