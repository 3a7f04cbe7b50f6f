// Ablation benchmarks for the design choices DESIGN.md §5 calls out:
// MAC width (§VII-A), the identifier and MAC-zero optimizations (§V), the
// soft-match budget k (§VI-C), and the individual correction guess
// strategies (§VI-D).
package ptguard

import (
	"testing"

	"ptguard/internal/attack"
	"ptguard/internal/mac"
	"ptguard/internal/sim"
	"ptguard/internal/workload"
)

// BenchmarkAblationMACWidth compares the 96-bit design against the §VII-A
// 64-bit alternative: correction rate at the LPDDR4 fault rate plus the
// analytic security of each width.
func BenchmarkAblationMACWidth(b *testing.B) {
	for _, width := range []int{64, 96} {
		width := width
		b.Run(map[int]string{64: "64bit", 96: "96bit"}[width], func(b *testing.B) {
			cfg := attack.CorrectionConfig{FlipProb: 1.0 / 128, Lines: 120, TagBits: width}
			corrected := correction(b, cfg, true).CorrectedPct()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				correction(b, cfg, true)
			}
			nEff, err := mac.EffectiveMACBits(width, 4, mac.GMaxPaper)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(corrected, "corrected-%")
			b.ReportMetric(nEff, "effective-mac-bits")
		})
	}
}

// BenchmarkAblationOptimizations isolates the §V optimizations: base
// PT-Guard vs the identifier+MAC-zero design on the same workload.
func BenchmarkAblationOptimizations(b *testing.B) {
	prof, err := workload.ProfileByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []sim.Mode{sim.PTGuard, sim.PTGuardOptimized} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			cmp := compare(b, prof, 10, mode)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				compare(b, prof, 10, mode)
			}
			b.ReportMetric(cmp.SlowdownPct[mode], "slowdown-%")
			b.ReportMetric(float64(cmp.Results[mode].Guard.ReadMACComputes), "read-mac-computes")
		})
	}
}

// BenchmarkAblationSoftMatchK sweeps the fault-tolerance budget: higher k
// corrects more MAC faults but costs effective security (§VI-E trade-off).
func BenchmarkAblationSoftMatchK(b *testing.B) {
	for _, k := range []int{1, 4, 8} {
		k := k
		b.Run(map[int]string{1: "k1", 4: "k4", 8: "k8"}[k], func(b *testing.B) {
			cfg := attack.CorrectionConfig{FlipProb: 1.0 / 128, Lines: 120, SoftMatchK: k}
			corrected := correction(b, cfg, false).CorrectedPct()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				correction(b, cfg, false)
			}
			nEff, err := mac.EffectiveMACBits(96, k, mac.GMaxPaper)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(corrected, "corrected-%")
			b.ReportMetric(nEff, "effective-mac-bits")
		})
	}
}

// BenchmarkAblationGuessStrategies disables one §VI-D strategy at a time to
// measure its contribution to the Fig. 9 correction rate.
func BenchmarkAblationGuessStrategies(b *testing.B) {
	cases := []struct {
		name   string
		mutate func(*attack.CorrectionConfig)
	}{
		{name: "full", mutate: func(*attack.CorrectionConfig) {}},
		{name: "no-flip-and-check", mutate: func(c *attack.CorrectionConfig) { c.DisableFlipAndCheck = true }},
		{name: "no-zero-reset", mutate: func(c *attack.CorrectionConfig) { c.DisableZeroReset = true }},
		{name: "no-flag-vote", mutate: func(c *attack.CorrectionConfig) { c.DisableFlagVote = true }},
		{name: "no-contiguity", mutate: func(c *attack.CorrectionConfig) { c.DisableContiguity = true }},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			cfg := attack.CorrectionConfig{FlipProb: 1.0 / 128, Lines: 120}
			tc.mutate(&cfg)
			corrected := correction(b, cfg, true).CorrectedPct()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				correction(b, cfg, true)
			}
			b.ReportMetric(corrected, "corrected-%")
		})
	}
}
