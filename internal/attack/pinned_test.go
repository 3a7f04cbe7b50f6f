package attack_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"ptguard/internal/attack"
	"ptguard/internal/core"
	"ptguard/internal/pte"
	"ptguard/internal/sim"
	"ptguard/internal/virt"
	"ptguard/internal/workload"
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

// guardKeyDigests pins, per experiment that builds a guard, what that guard
// seals: at seeds 1 and 42, the image Guard.Seal stores for a dense line
// and for the all-zero line, then the guard's soft-match budget and
// correction switch. A sealed image depends on the key and, under §V-A, the
// identifier, so a wrong key salt or draw order fails here even where no
// 96-bit-tag result can see it. The digests were recorded while each site
// still drew its own key.
var guardKeyDigests = map[string]string{
	"sim/ptguard":           "0666000654f467d97dcc7ea444ec151ac655a145448cf60424909086f2ef5585",
	"sim/ptguard-optimized": "1c7d78e069a7ef079ae1d1e28ee26c4bfcaa8c81b917d2e9960f87e5a4dcd3d2",
	"virt/guest":            "fd79ead97b3ecffb02fc3117beaca329d1f7b1df686fb31f27f5737001ddf43d",
	"virt/stage2":           "249e10f5b12b213b9d2ec816d696ad329dcc9602c3324cd3df9e83cdec3fccb0",
	"attack/world":          "26e1cdcba03b64697c5a5fc800accd636e538d3aeea0f8b8eff4d3c78a7b2185",
}

func TestGuardKeysPinned(t *testing.T) {
	prof, err := workload.ProfileByName("leela")
	if err != nil {
		t.Fatal(err)
	}
	simGuard := func(mode sim.Mode) func(uint64) (*core.Guard, error) {
		return func(seed uint64) (*core.Guard, error) {
			s, err := sim.NewSystem(sim.Config{Mode: mode, Seed: seed}, prof)
			if err != nil {
				return nil, err
			}
			return s.Controller().Guard(), nil
		}
	}
	virtGuard := func(stage2 bool) func(uint64) (*core.Guard, error) {
		return func(seed uint64) (*core.Guard, error) {
			h, err := virt.NewHost(virt.Config{Tenants: 1, PagesPerVM: 1, Placement: virt.PlacementBoth, Correction: true, Seed: seed})
			if err != nil {
				return nil, err
			}
			if stage2 {
				return h.S2Ctrl.Guard(), nil
			}
			return h.GuestCtrl.Guard(), nil
		}
	}
	sites := map[string]func(uint64) (*core.Guard, error){
		"sim/ptguard":           simGuard(sim.PTGuard),
		"sim/ptguard-optimized": simGuard(sim.PTGuardOptimized),
		"virt/guest":            virtGuard(false),
		"virt/stage2":           virtGuard(true),
		"attack/world": func(seed uint64) (*core.Guard, error) {
			w, err := attack.NewWorld(true, true, seed)
			if err != nil {
				return nil, err
			}
			return w.Guard(), nil
		},
	}
	var dense pte.Line
	for i := range dense {
		dense[i] = pte.Entry(1<<63 | uint64(0x12345+3*i)<<12 | 0x67)
	}
	const addr = 0x2468_1240
	for name, build := range sites {
		h := sha256.New()
		for _, seed := range []uint64{1, 42} {
			g, err := build(seed)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fmt.Fprintf(h, "%x %x\n", g.Seal(addr, dense), g.Seal(addr, pte.Line{}))
			fmt.Fprintf(h, "k=%d correct=%t\n", g.Config().SoftMatchK, g.Config().EnableCorrection)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != guardKeyDigests[name] {
			t.Errorf("%s guard key digest = %s, want %s", name, got, guardKeyDigests[name])
		}
	}
}
