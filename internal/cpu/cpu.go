// Package cpu provides the core timing models: the paper's 3 GHz in-order
// core (Table III), which stalls for the full latency of every memory
// access, and the out-of-order approximation of §VII-C, which overlaps part
// of the miss latency through memory-level parallelism.
package cpu

import (
	"errors"

	"ptguard/internal/obs"
)

// DefaultFreqGHz is the core clock (Table III).
const DefaultFreqGHz = 3.0

// Config parameterises a core. The zero Config is the Table III in-order
// core.
type Config struct {
	// FreqGHz is the clock frequency; 0 selects 3 GHz.
	FreqGHz float64
	// BaseCPI is the no-stall cycles per instruction; 0 selects 1.0.
	BaseCPI float64
	// MLPOverlap is the fraction of memory-stall cycles hidden by
	// out-of-order execution (0 for the in-order core; §VII-C's O3 model
	// hides a substantial fraction).
	MLPOverlap float64
}

// OutOfOrder returns the §VII-C multicore approximation: an O3 core that
// retires two instructions per cycle on compute and hides 40% of each
// memory stall through memory-level parallelism.
func OutOfOrder() Config {
	return Config{FreqGHz: DefaultFreqGHz, BaseCPI: 0.5, MLPOverlap: 0.4}
}

// Core accumulates retired instructions and cycles.
// Not safe for concurrent use.
type Core struct {
	cfg    Config
	cycles float64
	instrs uint64
}

// New builds a core.
func New(cfg Config) (*Core, error) {
	if cfg.FreqGHz == 0 {
		cfg.FreqGHz = DefaultFreqGHz
	}
	if cfg.BaseCPI == 0 {
		cfg.BaseCPI = 1
	}
	if cfg.FreqGHz < 0 || cfg.BaseCPI < 0 {
		return nil, errors.New("cpu: negative frequency or CPI")
	}
	if cfg.MLPOverlap < 0 || cfg.MLPOverlap >= 1 {
		return nil, errors.New("cpu: MLPOverlap outside [0, 1)")
	}
	return &Core{cfg: cfg}, nil
}

// Retire accounts n instructions of base execution.
func (c *Core) Retire(n int) {
	c.instrs += uint64(n)
	c.cycles += float64(n) * c.cfg.BaseCPI
}

// StallMemory accounts a memory stall of lat cycles, discounted by the MLP
// overlap for out-of-order cores.
func (c *Core) StallMemory(lat int) {
	c.cycles += float64(lat) * (1 - c.cfg.MLPOverlap)
}

// Cycles returns the elapsed core cycles.
func (c *Core) Cycles() float64 { return c.cycles }

// Instructions returns the retired instruction count.
func (c *Core) Instructions() uint64 { return c.instrs }

// IPC returns instructions per cycle.
func (c *Core) IPC() float64 {
	if c.cycles == 0 {
		return 0
	}
	return float64(c.instrs) / c.cycles
}

// Seconds converts the cycle count to wall time at the configured clock.
func (c *Core) Seconds() float64 { return c.cycles / (c.cfg.FreqGHz * 1e9) }

// ResetStats zeroes the cycle and instruction counters (post-warm-up).
func (c *Core) ResetStats() { c.cycles, c.instrs = 0, 0 }

// PublishObs feeds the core counters into the metric registry under "cpu."
// (the obs snapshot path; a nil registry is a no-op).
func (c *Core) PublishObs(r *obs.Registry) {
	if r == nil {
		return
	}
	r.SetCounter("cpu.instructions", c.instrs)
	r.SetGauge("cpu.cycles", c.cycles)
	r.SetGauge("cpu.ipc", c.IPC())
}
