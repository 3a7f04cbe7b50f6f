package dram

import (
	"errors"

	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

// Rowhammer threshold presets from the paper (§II-A, Kim et al. 2020).
const (
	// ThresholdDDR3 is the 2014 threshold: 139K activations.
	ThresholdDDR3 = 139000
	// ThresholdDDR4 is the 2020 DDR4 threshold: 10K activations.
	ThresholdDDR4 = 10000
	// ThresholdLPDDR4 is the 2020 LPDDR4 threshold: 4.8K activations.
	ThresholdLPDDR4 = 4800
)

// Worst-case per-bit flip probabilities once a row is hammered past the
// threshold (§VI-A: 1% for LPDDR4, 0.1-0.2% for DDR4).
const (
	FlipProbLPDDR4 = 1.0 / 128
	FlipProbDDR4   = 1.0 / 512
)

// FlipModel chooses which bits of a stored line a disturbance flips. The
// uniform per-bit Bernoulli model is built in; internal/fault provides
// spatially-aware implementations (DQ-pin bursts, true/anti-cell polarity,
// per-row severity, targeted PTE bits). Implementations must be
// deterministic functions of the rng stream and their inputs.
type FlipModel interface {
	// Name identifies the model in reports and campaign job keys.
	Name() string
	// FlipBits returns the line-relative bit positions (0..511) to flip
	// in the stored line at loc. Duplicate positions toggle the bit
	// repeatedly (an even count cancels out).
	FlipBits(rng *stats.RNG, line pte.Line, loc Location) []int
}

// FlipObserver receives every injected bit flip, line address plus
// line-relative bit position. The fault oracle uses it to keep ground truth.
type FlipObserver func(addr uint64, bit int)

// HammerConfig parameterises the disturbance model.
type HammerConfig struct {
	// Threshold is the activation count beyond which neighbours flip.
	Threshold int
	// FlipProb is the per-bit flip probability applied to a victim row's
	// stored lines when its aggressor crosses the threshold. Ignored when
	// Model is set.
	FlipProb float64
	// Model overrides the uniform Bernoulli fault model with a pluggable
	// one. Nil selects Bernoulli(FlipProb).
	Model FlipModel
	// Seed feeds the deterministic fault RNG.
	Seed uint64
}

// Hammerer drives Rowhammer attacks against a Device: it issues activations
// to aggressor rows and injects bit flips into victim rows once thresholds
// are crossed, modelling single-sided, double-sided and Half-Double
// patterns.
type Hammerer struct {
	dev *Device
	cfg HammerConfig
	rng *stats.RNG

	observer FlipObserver
	flips    uint64
}

// NewHammerer builds a Hammerer for dev.
func NewHammerer(dev *Device, cfg HammerConfig) (*Hammerer, error) {
	if dev == nil {
		return nil, errors.New("dram: nil device")
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = ThresholdDDR4
	}
	if cfg.FlipProb < 0 || cfg.FlipProb > 1 {
		return nil, errors.New("dram: flip probability outside [0, 1]")
	}
	if cfg.FlipProb == 0 {
		cfg.FlipProb = FlipProbDDR4
	}
	return &Hammerer{dev: dev, cfg: cfg, rng: stats.NewRNG(cfg.Seed)}, nil
}

// SetObserver registers a callback invoked once per injected bit flip.
// A nil observer disables the hook.
func (h *Hammerer) SetObserver(obs FlipObserver) { h.observer = obs }

// Model returns the configured flip model (nil for uniform Bernoulli).
func (h *Hammerer) Model() FlipModel { return h.cfg.Model }

// FlipsInjected returns the total number of bits flipped so far.
func (h *Hammerer) FlipsInjected() uint64 { return h.flips }

// HammerRow issues count activations to the row containing aggressorAddr
// and, if the threshold is crossed, disturbs the rows at the given
// distances (±1 for classic Rowhammer; Half-Double reaches ±2 because the
// mitigation's refreshes of the ±1 rows act as additional aggressors,
// §II-B). It returns the victim row indices that received flips.
func (h *Hammerer) HammerRow(aggressorAddr uint64, count int, distances []int) []int {
	loc := h.dev.Locate(aggressorAddr)
	bankIdx := loc.Channel*h.dev.geo.BanksPerChannel + loc.Bank
	if h.dev.addActivations(bankIdx, loc.Row, count) < h.cfg.Threshold {
		return nil
	}
	var hit []int
	for _, d := range distances {
		victim := loc.Row + d
		if victim < 0 || victim >= h.dev.geo.RowsPerBank {
			continue
		}
		if h.disturbRow(loc.Channel, loc.Bank, victim) > 0 {
			hit = append(hit, victim)
		}
	}
	return hit
}

// DoubleSided hammers the two rows sandwiching the victim row, the classic
// highest-yield pattern.
func (h *Hammerer) DoubleSided(victimAddr uint64, countPerSide int) int {
	loc := h.dev.Locate(victimAddr)
	flipped := 0
	for _, d := range []int{-1, +1} {
		agg := loc.Row + d
		if agg < 0 || agg >= h.dev.geo.RowsPerBank {
			continue
		}
		aggAddr := h.dev.AddrOfRow(loc.Bank, agg, 0)
		for _, v := range h.HammerRow(aggAddr, countPerSide, []int{-d}) {
			if v == loc.Row {
				flipped++
			}
		}
	}
	return flipped
}

// disturbRow injects fault-model bit flips into every stored line of the
// victim row, returning the number of bits flipped.
func (h *Hammerer) disturbRow(channel, bank, row int) int {
	base := h.dev.AddrOfRow(bank, row, 0)
	_ = channel // AddrOfRow models channel 0; geometry default has one channel
	linesPerRow := h.dev.geo.RowBytes / pte.LineBytes
	flipped := 0
	for c := 0; c < linesPerRow; c++ {
		addr := base + uint64(c*pte.LineBytes)
		if !h.dev.Contains(addr) {
			continue // nothing stored; flips in unused cells are moot
		}
		flipped += h.injectAt(addr, Location{Channel: 0, Bank: bank, Row: row, Column: c})
	}
	return flipped
}

// InjectFaults applies the configured fault model once to the stored line at
// addr: the fault-campaign entry point. It returns the number of bits that
// ended up flipped.
func (h *Hammerer) InjectFaults(addr uint64) int {
	return h.injectAt(addr, h.dev.Locate(addr))
}

// injectAt draws the flip positions for one line from the configured model
// (or the uniform Bernoulli default) and applies them.
func (h *Hammerer) injectAt(addr uint64, loc Location) int {
	line := h.dev.ReadLine(addr)
	var bits []int
	if h.cfg.Model != nil {
		bits = h.cfg.Model.FlipBits(h.rng, line, loc)
	} else {
		for bit := 0; bit < pte.LineBytes*8; bit++ {
			if h.rng.Bernoulli(h.cfg.FlipProb) {
				bits = append(bits, bit)
			}
		}
	}
	return h.applyFlips(addr, bits)
}

// FlipLineBits flips the exact given bit positions (0..511) of the stored
// line at addr: the surgical injection used by targeted exploits (§II-C).
func (h *Hammerer) FlipLineBits(addr uint64, bitPositions []int) {
	h.applyFlips(addr, bitPositions)
}

// applyFlips is the single choke point every injection path goes through:
// it toggles the requested bits, attributes the flips to the line's (bank,
// row) in the device counters, and notifies the observer. Out-of-range
// positions are ignored.
func (h *Hammerer) applyFlips(addr uint64, bitPositions []int) int {
	if len(bitPositions) == 0 {
		return 0
	}
	key := addr &^ lineOffsetMask
	line := h.dev.ReadLine(key) // seals an unsealed line before flipping it
	flipped := 0
	for _, bit := range bitPositions {
		if bit < 0 || bit >= pte.LineBytes*8 {
			continue
		}
		line[bit/64] = pte.Entry(uint64(line[bit/64]) ^ 1<<uint(bit%64))
		flipped++
		if h.observer != nil {
			h.observer(key, bit)
		}
	}
	if flipped > 0 {
		h.dev.lines[key] = line
		h.flips += uint64(flipped)
		h.dev.recordFlips(key, flipped)
	}
	return flipped
}
