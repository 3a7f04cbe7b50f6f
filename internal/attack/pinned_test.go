package attack_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"ptguard/internal/attack"
)

// fig9ResultsDigest pins both Fig. 9 experiments, the synthesized-pool
// RunCorrection and the walk-trace RunTraceCorrection: a SHA-256 of a
// fixed rendering of every result over the matrix below. A change to how
// the §VI-F trials are drawn, sampled or classified fails here, as does a
// change to the pool's key (the trace's key moves no count; see
// TestFig9GuardKeysPinned). Only a change meant to move a Fig. 9 number
// may update it, and it must say so.
const fig9ResultsDigest = "5081251e8fc31ce42c9cf2a9d665f6553e1eceafad42ac8cc7e971861f7babda"

// TestFig9DriversPinned runs RunCorrection at seeds 1 and 7 over every
// Fig. 9 flip rate, tag width {96, 64, 16} and soft-match budget {4, 1, 8},
// plus each ablation switch once, and RunTraceCorrection on three
// workloads at two seeds and two flip rates; 120 trials over a 40k-
// instruction trace wrap the trial index around the traced lines. The
// trace rendering omits Guesses, so that the digest recorded before
// RunTraceCorrection reported them still applies.
func TestFig9DriversPinned(t *testing.T) {
	h := sha256.New()
	correct := func(cfg attack.CorrectionConfig) {
		res, err := attack.RunCorrection(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "correct seed=%d p=%g tag=%d k=%d off=%t,%t,%t,%t: p=%g erroneous=%d corrected=%d detected=%d miscorrected=%d guesses=%d\n",
			cfg.Seed, cfg.FlipProb, cfg.TagBits, cfg.SoftMatchK,
			cfg.DisableFlipAndCheck, cfg.DisableZeroReset, cfg.DisableFlagVote, cfg.DisableContiguity,
			res.FlipProb, res.Erroneous, res.Corrected, res.Detected, res.Miscorrected, res.Guesses)
	}
	for _, seed := range []uint64{1, 7} {
		for _, p := range attack.Fig9FlipProbs {
			for _, tagBits := range []int{0, 64, 16} {
				for _, softK := range []int{0, 1, 8} {
					correct(attack.CorrectionConfig{FlipProb: p, Lines: 150, Seed: seed, SoftMatchK: softK, TagBits: tagBits})
				}
			}
		}
	}
	base := attack.CorrectionConfig{FlipProb: 1.0 / 256, Lines: 150, Seed: 1}
	for _, mutate := range []func(*attack.CorrectionConfig){
		func(c *attack.CorrectionConfig) { c.DisableFlipAndCheck = true },
		func(c *attack.CorrectionConfig) { c.DisableZeroReset = true },
		func(c *attack.CorrectionConfig) { c.DisableFlagVote = true },
		func(c *attack.CorrectionConfig) { c.DisableContiguity = true },
	} {
		cfg := base
		mutate(&cfg)
		correct(cfg)
	}
	for _, name := range []string{"mcf", "leela", "xalancbmk"} {
		for _, seed := range []uint64{1, 42} {
			for _, p := range []float64{1.0 / 512, 1.0 / 128} {
				cfg := attack.TraceCorrectionConfig{Workload: name, Instructions: 40_000, FlipProb: p, Trials: 120, Seed: seed}
				res, err := attack.RunTraceCorrection(cfg)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "trace %s seed=%d p=%g: lines=%d accesses=%d erroneous=%d corrected=%d detected=%d miscorrected=%d\n",
					name, seed, p, res.TraceLines, res.WalkAccesses, res.Erroneous, res.Corrected, res.Detected, res.Miscorrected)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != fig9ResultsDigest {
		t.Errorf("Fig. 9 results digest = %s, want %s", got, fig9ResultsDigest)
	}
}
