package sim

import (
	"errors"
	"fmt"

	"ptguard/internal/cpu"
	"ptguard/internal/dram"
	"ptguard/internal/memctrl"
	"ptguard/internal/ostable"
	"ptguard/internal/pte"
	"ptguard/internal/workload"
)

// MultiSystem runs several cores over one shared DRAM device, memory
// controller and frame allocator: the §VII-C configuration with *real*
// cross-core interference — row-buffer conflicts between workloads emerge
// from the shared device state instead of a constant penalty.
// Not safe for concurrent use.
type MultiSystem struct {
	cores []*System
	dev   *dram.Device
	ctrl  *memctrl.Controller
}

// DefaultQuantum is the round-robin scheduling quantum in instructions.
const DefaultQuantum = 1000

// NewMultiSystem builds an n-core system; cfg applies to every core except
// the per-core seed (offset per core) and virtual layout. Each core runs
// its own workload from profiles (len(profiles) cores).
func NewMultiSystem(cfg Config, profiles []workload.Profile) (*MultiSystem, error) {
	if len(profiles) == 0 {
		return nil, errors.New("sim: no workloads")
	}
	ctrl, err := newController(cfg)
	if err != nil {
		return nil, err
	}
	dev := ctrl.Device()
	totalFrames := dev.Geometry().Capacity() / pte.PageSize
	alloc, err := ostable.NewFrameAllocator(4096, totalFrames-4096)
	if err != nil {
		return nil, err
	}
	ms := &MultiSystem{dev: dev, ctrl: ctrl}
	for i, prof := range profiles {
		coreCfg := cfg
		coreCfg.Seed = cfg.Seed + uint64(i)*7919
		core, cerr := newSystemShared(coreCfg, prof, dev, ctrl, alloc, i)
		if cerr != nil {
			return nil, cerr
		}
		ms.cores = append(ms.cores, core)
	}
	return ms, nil
}

// Run executes instrPerCore instructions on every core, interleaved in
// round-robin quanta so the shared row buffers see the interleaved access
// stream. It returns one Result per core.
func (m *MultiSystem) Run(instrPerCore, quantum int) ([]Result, error) {
	if instrPerCore <= 0 {
		return nil, errors.New("sim: instruction count must be positive")
	}
	if quantum <= 0 {
		quantum = DefaultQuantum
	}
	remaining := make([]int, len(m.cores))
	for i := range remaining {
		remaining[i] = instrPerCore
	}
	for {
		active := false
		for i, s := range m.cores {
			if remaining[i] == 0 {
				continue
			}
			active = true
			n := quantum
			if n > remaining[i] {
				n = remaining[i]
			}
			for k := 0; k < n; k++ {
				s.step()
			}
			remaining[i] -= n
		}
		if !active {
			break
		}
	}
	out := make([]Result, len(m.cores))
	for i, s := range m.cores {
		out[i] = s.result()
	}
	return out, nil
}

// ResetStats zeroes every core's measurement counters (post-warm-up).
func (m *MultiSystem) ResetStats() {
	for _, s := range m.cores {
		s.ResetStats()
	}
}

// MulticoreMix is one 4-core workload mix (§VII-C: SAME runs four copies of
// one benchmark, MIX runs four different ones).
type MulticoreMix struct {
	Name      string
	Workloads []workload.Profile
}

// MulticoreResult reports one mix's slowdown.
type MulticoreResult struct {
	Mix         string
	SlowdownPct float64
}

// MulticoreContention is the extra queueing delay per access when four
// cores share the channel (§VII-C: higher base memory latency is one of the
// two effects that shrink PT-Guard's relative overhead).
const MulticoreContention = 120

// CompareMulticore runs a 4-core mix in the §VII-C model: out-of-order
// cores (MLP hides part of each miss) sharing one DRAM device and a
// contended channel, so row-buffer interference between the workloads is
// real. It returns PT-Guard's slowdown over baseline; the PT-Guard
// configuration is the base design, charging the MAC latency on all DRAM
// reads, as in the paper's multicore evaluation.
func CompareMulticore(mix MulticoreMix, warmup, instrPerCore int, seed uint64, macLatency int) (MulticoreResult, error) {
	if len(mix.Workloads) == 0 {
		return MulticoreResult{}, errors.New("sim: empty mix")
	}
	if warmup < 0 {
		return MulticoreResult{}, fmt.Errorf("sim: negative warm-up (%d instructions)", warmup)
	}
	run := func(mode Mode) (float64, error) {
		cfg := Config{
			Mode:             mode,
			Seed:             seed,
			MACLatencyCycles: macLatency,
			Core:             cpu.OutOfOrder(),
			ContentionCycles: MulticoreContention,
		}
		ms, err := NewMultiSystem(cfg, mix.Workloads)
		if err != nil {
			return 0, err
		}
		if warmup > 0 {
			if _, err := ms.Run(warmup, 0); err != nil {
				return 0, err
			}
			ms.ResetStats()
		}
		results, err := ms.Run(instrPerCore, 0)
		if err != nil {
			return 0, err
		}
		total := 0.0
		for _, r := range results {
			total += r.Cycles
		}
		return total, nil
	}
	base, err := run(Baseline)
	if err != nil {
		return MulticoreResult{}, err
	}
	guard, err := run(PTGuard)
	if err != nil {
		return MulticoreResult{}, err
	}
	sl, err := SlowdownPercent(guard, base)
	if err != nil {
		return MulticoreResult{}, fmt.Errorf("%s: %w", mix.Name, err)
	}
	return MulticoreResult{Mix: mix.Name, SlowdownPct: sl}, nil
}
