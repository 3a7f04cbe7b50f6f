package attack

import (
	"errors"
	"strconv"

	"ptguard/internal/core"
	"ptguard/internal/dram"
	"ptguard/internal/mac"
	"ptguard/internal/ostable"
	"ptguard/internal/pte"
	"ptguard/internal/sim"
	"ptguard/internal/stats"
	"ptguard/internal/workload"
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
// cachelines, flip each of their bits with probability FlipProb, and
// replay page-table walks through the correction-enabled guard. The result
// is bit-identical at any GOMAXPROCS (see runTrials).
func RunCorrection(cfg CorrectionConfig) (CorrectionResult, error) {
	if !(cfg.FlipProb > 0 && cfg.FlipProb < 1) { // NaN fails too
		return CorrectionResult{}, errors.New("attack: FlipProb outside (0, 1)")
	}
	if cfg.Lines <= 0 {
		return CorrectionResult{}, errors.New("attack: Lines must be positive")
	}
	guardCfg, err := cfg.guardConfig()
	if err != nil {
		return CorrectionResult{}, err
	}
	samples, err := samplePool(guardCfg, cfg.Seed, cfg.Lines)
	if err != nil {
		return CorrectionResult{}, err
	}
	return runTrials(guardCfg, samples, cfg.Lines, cfg.FlipProb, cfg.Seed, "fig9/trial/")
}

// TraceCorrectionConfig parameterises the trace-driven Fig. 9 experiment:
// the paper's exact methodology of extracting page-table-walk traces from
// the full-system simulation and flipping each bit of the traced PTE
// cachelines with uniform probability (§VI-F).
type TraceCorrectionConfig struct {
	// Workload is the benchmark whose walk trace feeds the experiment.
	Workload string
	// Instructions is the trace-collection window.
	Instructions int
	// FlipProb is the per-bit fault probability.
	FlipProb float64
	// Trials is the number of faulty-line trials to run (the trace is
	// cycled as needed).
	Trials int
	// Seed drives the whole experiment.
	Seed uint64
}

// TraceCorrectionResult is the Fig. 9 measurement over a walk trace.
type TraceCorrectionResult struct {
	TraceLines   int // distinct PTE lines in the trace
	WalkAccesses int // total traced DRAM-level PTE fetches
	CorrectionResult
}

// RunTraceCorrection executes the §VI-F pipeline end to end: run the
// workload on the guarded system recording its page-table-walk trace, then
// replay fault injections over the traced PTE cachelines, in first-touch
// order, through the same trial loop as RunCorrection.
func RunTraceCorrection(cfg TraceCorrectionConfig) (TraceCorrectionResult, error) {
	if !(cfg.FlipProb > 0 && cfg.FlipProb < 1) { // NaN fails too
		return TraceCorrectionResult{}, errors.New("attack: FlipProb outside (0, 1)")
	}
	if cfg.Trials <= 0 || cfg.Instructions <= 0 {
		return TraceCorrectionResult{}, errors.New("attack: Trials and Instructions must be positive")
	}
	prof, err := workload.ProfileByName(cfg.Workload)
	if err != nil {
		return TraceCorrectionResult{}, err
	}
	s, err := sim.NewSystem(sim.Config{Mode: sim.PTGuard, Seed: cfg.Seed, TraceWalks: true}, prof)
	if err != nil {
		return TraceCorrectionResult{}, err
	}
	if _, err := s.Run(cfg.Instructions); err != nil {
		return TraceCorrectionResult{}, err
	}
	trace := s.WalkTrace()
	if len(trace) == 0 {
		return TraceCorrectionResult{}, errors.New("attack: empty walk trace")
	}
	seen := make(map[uint64]bool, len(trace))
	var lines []ostable.PoolLine
	for _, addr := range trace {
		if seen[addr] {
			continue
		}
		seen[addr] = true
		if line, ok := s.Tables().LineAt(addr); ok {
			lines = append(lines, ostable.PoolLine{Addr: addr, Line: line})
		}
	}
	guardCfg, err := cfg.guardConfig()
	if err != nil {
		return TraceCorrectionResult{}, err
	}
	samples, err := protect(guardCfg, lines)
	if err != nil {
		return TraceCorrectionResult{}, err
	}
	res, err := runTrials(guardCfg, samples, cfg.Trials, cfg.FlipProb, cfg.Seed, "fig9-trace/trial/")
	if err != nil {
		return TraceCorrectionResult{}, err
	}
	return TraceCorrectionResult{TraceLines: len(seen), WalkAccesses: len(trace), CorrectionResult: res}, nil
}

// correctionGuard returns the correction-enabled guard configuration both
// Fig. 9 experiments use: the x86 format at M = 40, a key drawn from keySeed,
// the soft-match budget softK (0 selects the paper's 4) and the tag width
// tagBits (0 selects 96).
func correctionGuard(keySeed uint64, softK, tagBits int) (core.Config, error) {
	if softK == 0 {
		softK = 4
	}
	format, err := pte.FormatX86(40)
	if err != nil {
		return core.Config{}, err
	}
	key := make([]byte, mac.KeySize)
	kr := stats.NewRNG(keySeed)
	for i := range key {
		key[i] = byte(kr.Uint64())
	}
	return core.Config{
		Format:           format,
		Key:              key,
		TagBits:          tagBits,
		EnableCorrection: true,
		SoftMatchK:       softK,
	}, nil
}

// guardConfig returns the guard configuration of the experiment, keyed
// from Seed, with its ablation switches.
func (cfg CorrectionConfig) guardConfig() (core.Config, error) {
	c, err := correctionGuard(cfg.Seed^0xF19, cfg.SoftMatchK, cfg.TagBits)
	if err != nil {
		return core.Config{}, err
	}
	c.DisableFlipAndCheck = cfg.DisableFlipAndCheck
	c.DisableZeroReset = cfg.DisableZeroReset
	c.DisableFlagVote = cfg.DisableFlagVote
	c.DisableContiguity = cfg.DisableContiguity
	return c, nil
}

// guardConfig returns the guard configuration that re-protects the traced
// lines: a fresh correction-enabled guard at the paper's defaults, keyed
// from Seed apart from the system that recorded the trace.
func (cfg TraceCorrectionConfig) guardConfig() (core.Config, error) {
	return correctionGuard(cfg.Seed^0x916, 0, 0)
}

// samplePool builds the shuffled line pool for seed, so every flip
// probability is evaluated over the same line population, and reads and
// protects its first min(lines, Len()) lines, the only ones the trials
// visit.
// A protected line's image depends on nothing but the key, format, tag
// width, address and line, so each is the image a flush of every table
// line would have stored.
func samplePool(guardCfg core.Config, seed uint64, lines int) ([]sample, error) {
	alloc, err := ostable.NewFrameAllocator(4096, dram.DefaultGeometry().Capacity()/pte.PageSize-4096)
	if err != nil {
		return nil, err
	}
	pool, err := ostable.SynthesizePool(alloc, seed)
	if err != nil {
		return nil, err
	}
	sampled := make([]ostable.PoolLine, min(lines, pool.Len()))
	for i := range sampled {
		sampled[i] = pool.Line(i)
	}
	return protect(guardCfg, sampled)
}

// sample is one protected line a Fig. 9 trial draws: its address, its
// architectural payload and the image the protecting guard stored.
type sample struct {
	addr            uint64
	arch, protected pte.Line
}

// protect writes lines, in order, through one guard built from guardCfg,
// so its collision tracking buffer carries state from line to line, and
// returns the lines it protected with their stored images. A line the
// guard stores unprotected carries no MAC to correct against, so it is no
// Fig. 9 sample.
func protect(guardCfg core.Config, lines []ostable.PoolLine) ([]sample, error) {
	guard, err := core.NewGuard(guardCfg)
	if err != nil {
		return nil, err
	}
	samples := make([]sample, 0, len(lines))
	for _, l := range lines {
		w, err := guard.OnWrite(l.Line, l.Addr)
		if err != nil || !w.Protected {
			continue
		}
		samples = append(samples, sample{addr: l.Addr, arch: l.Line, protected: w.Line})
	}
	return samples, nil
}

// runTrials is the §VI-F trial loop: trial t flips each bit of the
// protected image of samples[t mod len(samples)] with probability p, drawn
// from an RNG seeded by DeriveSeed(seed, label+t) and redrawn until at
// least one bit flips (every trial is an erroneous line), then replays the
// walk read through a correction-enabled guard. The n trials are sharded
// across GOMAXPROCS goroutines, each with a shard-local guard; a trial is
// a pure function of its sample and seed, so the tally is bit-identical
// however many shards run it (see stats.ShardTrials).
func runTrials(guardCfg core.Config, samples []sample, n int, p float64, seed uint64, label string) (CorrectionResult, error) {
	if len(samples) == 0 {
		return CorrectionResult{}, errors.New("attack: no protected line to inject faults into")
	}
	trials, err := stats.ShardTrials(n,
		func() (*core.Guard, error) { return core.NewGuard(guardCfg) },
		func(g *core.Guard, t int) (trialVerdict, error) {
			s := &samples[t%len(samples)]
			rng := stats.NewRNG(stats.DeriveSeed(seed, label+strconv.Itoa(t)))
			faulty := flipLineBernoulli(s.protected, p, rng)
			before := g.Counters().CorrectionGuesses
			rd := g.OnRead(faulty, s.addr, true)
			v := trialVerdict{guesses: g.Counters().CorrectionGuesses - before}
			switch {
			case rd.CheckFailed:
				v.detected = true
			case payloadMatches(rd.Line, s.arch, guardCfg.Format):
				v.corrected = true
			}
			return v, nil
		})
	if err != nil {
		return CorrectionResult{}, err
	}
	res := CorrectionResult{FlipProb: p, Erroneous: len(trials)}
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
