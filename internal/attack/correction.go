package attack

import (
	"errors"
	"strconv"

	"ptguard/internal/core"
	"ptguard/internal/dram"
	"ptguard/internal/mac"
	"ptguard/internal/memctrl"
	"ptguard/internal/ostable"
	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

// Fig. 9's fault probabilities (§VI-F): the worst-case Rowhammer per-bit
// flip rates for DDR4 (1/512) through LPDDR4 (1/128).
var Fig9FlipProbs = []float64{1.0 / 512, 1.0 / 256, 1.0 / 128}

// CorrectionConfig parameterises the §VI-F experiment.
type CorrectionConfig struct {
	// FlipProb is the uniform per-bit fault probability.
	FlipProb float64
	// Lines is the number of faulty PTE cachelines to evaluate.
	Lines int
	// Seed drives the population synthesiser and fault injector.
	Seed uint64
	// SoftMatchK overrides the MAC fault budget; 0 selects the paper's 4.
	SoftMatchK int
	// TagBits overrides the MAC width; 0 selects 96 (§VII-A ablation).
	TagBits int
	// Ablation switches mirror core.Config: disable individual guess
	// strategies to measure their contribution (DESIGN.md §5.5).
	DisableFlipAndCheck bool
	DisableZeroReset    bool
	DisableFlagVote     bool
	DisableContiguity   bool
}

// CorrectionResult is the Fig. 9 measurement.
type CorrectionResult struct {
	FlipProb float64
	// Erroneous counts lines that actually received >= 1 flip.
	Erroneous int
	// Corrected counts erroneous lines whose walk served the original
	// (architectural) payload, via soft match or the correction engine.
	Corrected int
	// Detected counts erroneous lines that raised PTECheckFailed.
	Detected int
	// Miscorrected counts walks that served a wrong payload: must be 0.
	Miscorrected int
	// Guesses is the total correction guesses spent.
	Guesses uint64
}

// CorrectedPct returns the Fig. 9 y-axis: corrected / erroneous.
func (r CorrectionResult) CorrectedPct() float64 {
	if r.Erroneous == 0 {
		return 0
	}
	return 100 * float64(r.Corrected) / float64(r.Erroneous)
}

// CoveragePct returns detected-or-corrected / erroneous: the paper's 100%
// detection claim.
func (r CorrectionResult) CoveragePct() float64 {
	if r.Erroneous == 0 {
		return 0
	}
	return 100 * float64(r.Corrected+r.Detected) / float64(r.Erroneous)
}

// RunCorrection reproduces the Fig. 9 methodology: synthesise page tables
// with realistic value locality (§VI-B), protect the sampled PTE
// cachelines through the memory controller, flip each of their bits with
// probability FlipProb, and replay page-table walks through the
// correction-enabled guard.
//
// The trial loop is sharded across GOMAXPROCS goroutines: each trial draws
// its faults from an RNG seeded by DeriveSeed(Seed, trial index) and runs
// against a shard-local guard, so the result is bit-identical however many
// shards execute it (see stats.ShardTrials).
func RunCorrection(cfg CorrectionConfig) (CorrectionResult, error) {
	if cfg.FlipProb <= 0 || cfg.FlipProb >= 1 {
		return CorrectionResult{}, errors.New("attack: FlipProb outside (0, 1)")
	}
	if cfg.Lines <= 0 {
		return CorrectionResult{}, errors.New("attack: Lines must be positive")
	}
	guardCfg, err := cfg.guardConfig()
	if err != nil {
		return CorrectionResult{}, err
	}
	pool, protected, err := samplePool(guardCfg, cfg.Seed, cfg.Lines)
	if err != nil {
		return CorrectionResult{}, err
	}

	// Sharded trial loop. Each trial is a pure function of (pool entry,
	// trial seed): flip bits of the protected image with a per-trial RNG
	// (redrawing until at least one bit flips, so every trial is an
	// erroneous line, matching the skip-and-retry of the serial
	// methodology) and replay the walk through a shard-local guard.
	trials, err := stats.ShardTrials(cfg.Lines,
		func() (*core.Guard, error) { return core.NewGuard(guardCfg) },
		func(g *core.Guard, t int) (trialVerdict, error) {
			i := t % len(pool)
			rng := stats.NewRNG(stats.DeriveSeed(cfg.Seed, "fig9/trial/"+strconv.Itoa(t)))
			faulty := flipLineBernoulli(protected[i], cfg.FlipProb, rng)
			before := g.Counters().CorrectionGuesses
			rd := g.OnRead(faulty, pool[i].Addr, true)
			v := trialVerdict{guesses: g.Counters().CorrectionGuesses - before}
			switch {
			case rd.CheckFailed:
				v.detected = true
			case payloadMatches(rd.Line, pool[i].Line, guardCfg.Format):
				v.corrected = true
			}
			return v, nil
		})
	if err != nil {
		return CorrectionResult{}, err
	}
	res := CorrectionResult{FlipProb: cfg.FlipProb, Erroneous: len(trials)}
	for _, v := range trials {
		res.Guesses += v.guesses
		switch {
		case v.detected:
			res.Detected++
		case v.corrected:
			res.Corrected++
		default:
			res.Miscorrected++
		}
	}
	return res, nil
}

// guardConfig returns the correction-enabled guard configuration of the
// experiment, keyed from Seed.
func (cfg CorrectionConfig) guardConfig() (core.Config, error) {
	k := cfg.SoftMatchK
	if k == 0 {
		k = 4
	}
	format, err := pte.FormatX86(40)
	if err != nil {
		return core.Config{}, err
	}
	key := make([]byte, mac.KeySize)
	kr := stats.NewRNG(cfg.Seed ^ 0xF19)
	for i := range key {
		key[i] = byte(kr.Uint64())
	}
	return core.Config{
		Format:              format,
		Key:                 key,
		TagBits:             cfg.TagBits,
		EnableCorrection:    true,
		SoftMatchK:          k,
		DisableFlipAndCheck: cfg.DisableFlipAndCheck,
		DisableZeroReset:    cfg.DisableZeroReset,
		DisableFlagVote:     cfg.DisableFlagVote,
		DisableContiguity:   cfg.DisableContiguity,
	}, nil
}

// samplePool builds the shuffled line pool for seed, so every flip
// probability is evaluated over the same line population, and protects
// its first min(lines, len(pool)) entries, the only ones the trials visit,
// through a memory controller guarded by guardCfg. It returns the pool and
// those entries' protected images. A protected line's image depends on
// nothing but the key, format, tag width, address and line — the guard's
// write path reads no other state for it — so each is the image a flush of
// every table line would have stored.
func samplePool(guardCfg core.Config, seed uint64, lines int) ([]ostable.PoolLine, []pte.Line, error) {
	dev, err := dram.NewDevice(dram.Geometry{}, dram.Timing{})
	if err != nil {
		return nil, nil, err
	}
	guard, err := core.NewGuard(guardCfg)
	if err != nil {
		return nil, nil, err
	}
	ctrl, err := memctrl.New(dev, guard, 0)
	if err != nil {
		return nil, nil, err
	}
	alloc, err := ostable.NewFrameAllocator(4096, dev.Geometry().Capacity()/pte.PageSize-4096)
	if err != nil {
		return nil, nil, err
	}
	_, pool, err := ostable.SynthesizePool(alloc, seed)
	if err != nil {
		return nil, nil, err
	}
	n := min(lines, len(pool))
	addrs := make([]uint64, n)
	protected := make([]pte.Line, n)
	for i, entry := range pool[:n] {
		addrs[i], protected[i] = entry.Addr, entry.Line
	}
	if _, err := ctrl.WriteLinesBatch(addrs, protected); err != nil {
		return nil, nil, err
	}
	for i, addr := range addrs {
		protected[i] = dev.ReadLine(addr)
	}
	return pool, protected, nil
}

// trialVerdict is one Fig. 9 trial's classification.
type trialVerdict struct {
	detected  bool
	corrected bool
	guesses   uint64
}

// flipLineBernoulli flips each bit of line independently with probability
// p, redrawing the whole pattern until at least one bit flips: the §VI-F
// per-line fault injection, conditioned on the line being erroneous.
func flipLineBernoulli(line pte.Line, p float64, rng *stats.RNG) pte.Line {
	for {
		flipped := false
		out := line
		for bit := 0; bit < pte.LineBytes*8; bit++ {
			if rng.Bernoulli(p) {
				out[bit/64] = pte.Entry(uint64(out[bit/64]) ^ 1<<uint(bit%64))
				flipped = true
			}
		}
		if flipped {
			return out
		}
	}
}

// payloadMatches compares the MAC-covered bits of the served line against
// the architectural original (the accessed bit and the base design's
// ignored field are uncovered by construction, Table IV).
func payloadMatches(got, want pte.Line, format pte.Format) bool {
	for i := range got {
		if uint64(got[i])&format.ProtectedMask != uint64(want[i])&format.ProtectedMask {
			return false
		}
	}
	return true
}
