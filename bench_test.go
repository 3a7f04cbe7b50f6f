// Benchmarks regenerating every table and figure of the paper (see
// DESIGN.md §3 for the experiment index). Each benchmark runs a scaled-down
// instance of the corresponding experiment per iteration and reports the
// headline quantity via b.ReportMetric; `ptguard <subcommand>` runs the
// full-scale versions. Every experiment runs on benchSeed, and its quality
// metrics come from one untimed run before the timed loop, so they never
// depend on b.N.
package ptguard

import (
	"testing"

	"ptguard/internal/attack"
	"ptguard/internal/core"
	"ptguard/internal/mac"
	"ptguard/internal/ostable"
	"ptguard/internal/pte"
	"ptguard/internal/sim"
	"ptguard/internal/stats"
	"ptguard/internal/workload"
)

// benchSeed seeds every paper-experiment benchmark.
const benchSeed = 1

// BenchmarkTableIVProtectedBitMap covers Tables I/IV: deriving the x86_64
// protected-bit map and packing a PTE line.
func BenchmarkTableIVProtectedBitMap(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := pte.FormatX86(40)
		if err != nil {
			b.Fatal(err)
		}
		if f.MACBitsPerLine() != 96 {
			b.Fatal("wrong MAC capacity")
		}
	}
}

// BenchmarkFig6Slowdown regenerates a Fig. 6 point: the worst-case workload
// (xalancbmk) compared against the unprotected baseline.
func BenchmarkFig6Slowdown(b *testing.B) {
	prof, err := workload.ProfileByName("xalancbmk")
	if err != nil {
		b.Fatal(err)
	}
	cmp := compare(b, prof, 10, sim.PTGuard)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compare(b, prof, 10, sim.PTGuard)
	}
	b.ReportMetric(cmp.SlowdownPct[sim.PTGuard], "slowdown-%")
	b.ReportMetric(cmp.LLCMPKI, "llc-mpki")
}

// BenchmarkFig6SlowdownOptimized is the Optimized PT-Guard series of Fig. 6.
func BenchmarkFig6SlowdownOptimized(b *testing.B) {
	prof, err := workload.ProfileByName("xalancbmk")
	if err != nil {
		b.Fatal(err)
	}
	cmp := compare(b, prof, 10, sim.PTGuardOptimized)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compare(b, prof, 10, sim.PTGuardOptimized)
	}
	b.ReportMetric(cmp.SlowdownPct[sim.PTGuardOptimized], "slowdown-%")
}

// compare runs the scaled-down Fig. 6 comparison of one mode on benchSeed.
func compare(b *testing.B, prof workload.Profile, macLatency int, mode sim.Mode) sim.Comparison {
	cmp, err := sim.Compare(prof, 60_000, 120_000, benchSeed, macLatency, []sim.Mode{mode})
	if err != nil {
		b.Fatal(err)
	}
	return cmp
}

// BenchmarkFig7LatencySweep regenerates Fig. 7's end points: slowdown at 5
// and 20 MAC cycles on a memory-intensive workload.
func BenchmarkFig7LatencySweep(b *testing.B) {
	prof, err := workload.ProfileByName("lbm")
	if err != nil {
		b.Fatal(err)
	}
	s5 := compare(b, prof, 5, sim.PTGuard).SlowdownPct[sim.PTGuard]
	s20 := compare(b, prof, 20, sim.PTGuard).SlowdownPct[sim.PTGuard]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compare(b, prof, 5, sim.PTGuard)
		compare(b, prof, 20, sim.PTGuard)
	}
	b.ReportMetric(s5, "slowdown-5cyc-%")
	b.ReportMetric(s20, "slowdown-20cyc-%")
}

// BenchmarkFig8Profile regenerates Fig. 8: synthesising and classifying a
// slice of the process population.
func BenchmarkFig8Profile(b *testing.B) {
	profile := func() ostable.PopulationSummary {
		alloc, err := ostable.NewFrameAllocator(0x1000, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		cfg := ostable.DefaultSynthConfig()
		cfg.Seed = benchSeed
		pop, err := ostable.NewPopulation(cfg, alloc)
		if err != nil {
			b.Fatal(err)
		}
		perProc, err := ostable.RunPopulation(pop, 10)
		if err != nil {
			b.Fatal(err)
		}
		sum, err := ostable.Summarize(perProc)
		if err != nil {
			b.Fatal(err)
		}
		return sum
	}
	sum := profile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profile()
	}
	b.ReportMetric(sum.ZeroMean, "zero-pte-%")
	b.ReportMetric(sum.ContigMean, "contig-pfn-%")
}

// BenchmarkFig9Correction regenerates a Fig. 9 point: correction rate at
// the LPDDR4 worst-case flip probability.
func BenchmarkFig9Correction(b *testing.B) {
	cfg := attack.CorrectionConfig{FlipProb: 1.0 / 128, Lines: 150}
	res := correction(b, cfg, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		correction(b, cfg, true)
	}
	b.ReportMetric(res.CorrectedPct(), "corrected-%")
	b.ReportMetric(res.CoveragePct(), "coverage-%")
}

// correction runs one Fig. 9 correction sweep on benchSeed, failing the
// benchmark on a miscorrection when exact is set.
func correction(b *testing.B, cfg attack.CorrectionConfig, exact bool) attack.CorrectionResult {
	cfg.Seed = benchSeed
	res, err := attack.RunCorrection(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if exact && res.Miscorrected != 0 {
		b.Fatal("miscorrection observed")
	}
	return res
}

// BenchmarkSecurityModel regenerates the §VI-E analytics (Eqs. 1 and 2).
func BenchmarkSecurityModel(b *testing.B) {
	var nEff float64
	for i := 0; i < b.N; i++ {
		var err error
		nEff, err = mac.EffectiveMACBits(96, 4, mac.GMaxPaper)
		if err != nil {
			b.Fatal(err)
		}
		if _, err = mac.UncorrectableMACProb(96, 4, 0.01); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(nEff, "effective-mac-bits")
}

// BenchmarkDetectionCoverage regenerates the §VI-F / §VIII comparison:
// PT-Guard vs prior defenses on identical fault patterns.
func BenchmarkDetectionCoverage(b *testing.B) {
	coverage := func() attack.CoverageResult {
		res, err := attack.RunCoverage(benchSeed, 60, 8)
		if err != nil {
			b.Fatal(err)
		}
		if res.PTGuardDetected != res.Trials {
			b.Fatal("PT-Guard missed a fault")
		}
		return res
	}
	res := coverage()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coverage()
	}
	b.ReportMetric(100, "ptguard-detect-%")
	b.ReportMetric(float64(res.MonotonicUnprotected)/float64(res.Trials)*100, "monotonic-unprot-%")
}

// BenchmarkMulticore regenerates §VII-C: a 4-core SAME mix under PT-Guard.
func BenchmarkMulticore(b *testing.B) {
	prof, err := workload.ProfileByName("lbm")
	if err != nil {
		b.Fatal(err)
	}
	mix := sim.MulticoreMix{Name: "lbm-SAME", Workloads: []workload.Profile{prof, prof, prof, prof}}
	res, err := sim.CompareMulticore(mix, 30_000, 60_000, benchSeed, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.CompareMulticore(mix, 30_000, 60_000, benchSeed, 10); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.SlowdownPct, "slowdown-%")
}

// BenchmarkGuardWrite measures the mechanism's write path (pattern match +
// MAC embed), the §V-E energy discussion's unit of work.
func BenchmarkGuardWrite(b *testing.B) {
	g := benchGuard(b)
	line := benchPTELine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.OnWrite(line, uint64(i)<<6); err != nil {
			b.Fatal(err)
		}
	}
}

// walkReadLines is the number of protected lines BenchmarkGuardWalkRead
// cycles through: four times the guard's MAC memo, so every read misses it
// and computes a MAC.
const walkReadLines = 4096

// BenchmarkGuardWalkRead measures the verification path charged on every
// page-table walk (the 10-cycle MAC unit's software stand-in): the reads
// cycle through walkReadLines lines, so each one misses the MAC memo and
// runs the cipher.
func BenchmarkGuardWalkRead(b *testing.B) {
	g := benchGuard(b)
	line := benchPTELine()
	images := make([]pte.Line, walkReadLines)
	for i := range images {
		res, err := g.OnWrite(line, uint64(i)<<6)
		if err != nil {
			b.Fatal(err)
		}
		images[i] = res.Line
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % walkReadLines
		if rd := g.OnRead(images[k], uint64(k)<<6, true); rd.CheckFailed {
			b.Fatal("clean line failed")
		}
	}
}

// BenchmarkGuardWalkReadRepeat re-verifies one line on every iteration:
// the MAC memo's hit path.
func BenchmarkGuardWalkReadRepeat(b *testing.B) {
	g := benchGuard(b)
	res, err := g.OnWrite(benchPTELine(), 0x4000)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rd := g.OnRead(res.Line, 0x4000, true); rd.CheckFailed {
			b.Fatal("clean line failed")
		}
	}
}

func benchGuard(b *testing.B) *core.Guard {
	b.Helper()
	cfg, err := core.SeededConfig(stats.NewRNG(0xBE7C), false)
	if err != nil {
		b.Fatal(err)
	}
	g, err := core.NewGuard(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchPTELine() pte.Line {
	var l pte.Line
	for i := range l {
		l[i] = pte.Entry(0x107).WithPFN(0xBEEF00 + uint64(i))
	}
	return l
}
