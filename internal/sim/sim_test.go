package sim

import (
	"math"
	"testing"

	"ptguard/internal/cpu"
	"ptguard/internal/dram"
	"ptguard/internal/workload"
)

// testInstructions keeps single tests fast while exercising enough misses
// for stable statistics.
const (
	testWarmup       = 200_000
	testInstructions = 400_000
)

func testProfile(tb testing.TB, name string) workload.Profile {
	tb.Helper()
	p, err := workload.ProfileByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(Config{}, testProfile(t, "mcf")); err == nil {
		t.Error("missing mode accepted")
	}
	s, err := NewSystem(Config{Mode: Baseline, Seed: 1}, testProfile(t, "leela"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(0); err == nil {
		t.Error("zero instructions accepted")
	}
}

func TestBaselineRunProducesSaneNumbers(t *testing.T) {
	s, err := NewSystem(Config{Mode: Baseline, Seed: 7}, testProfile(t, "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(testInstructions)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != testInstructions {
		t.Errorf("instructions = %d", res.Instructions)
	}
	if res.IPC <= 0 || res.IPC > 1 {
		t.Errorf("in-order IPC = %v outside (0, 1]", res.IPC)
	}
	if res.PageWalks == 0 {
		t.Error("no page walks happened")
	}
	if res.CheckFails != 0 {
		t.Errorf("baseline observed %d check failures", res.CheckFails)
	}
	if res.LLCMPKI <= 0 {
		t.Error("LLC MPKI is zero; workload never missed")
	}
}

func TestMPKICalibration(t *testing.T) {
	// The generator is calibrated so the simulated hierarchy reproduces
	// each benchmark's published LLC MPKI; spot-check the extremes.
	tests := []struct {
		name string
		tol  float64
	}{
		{name: "xalancbmk", tol: 6},
		{name: "lbm", tol: 5},
		{name: "mcf", tol: 4},
		{name: "leela", tol: 1.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			prof := testProfile(t, tt.name)
			s, err := NewSystem(Config{Mode: Baseline, Seed: 3}, prof)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(testWarmup); err != nil {
				t.Fatal(err)
			}
			s.ResetStats()
			res, err := s.Run(testInstructions)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(res.LLCMPKI-prof.TargetMPKI) > tt.tol {
				t.Errorf("MPKI = %.1f, want %.1f±%.1f", res.LLCMPKI, prof.TargetMPKI, tt.tol)
			}
		})
	}
}

func TestPTGuardSlowdownIsSmallAndPositive(t *testing.T) {
	cmp, err := Compare(testProfile(t, "xalancbmk"), testWarmup, testInstructions, 11, 0, []Mode{PTGuard, PTGuardOptimized})
	if err != nil {
		t.Fatal(err)
	}
	base := cmp.SlowdownPct[PTGuard]
	opt := cmp.SlowdownPct[PTGuardOptimized]
	t.Logf("xalancbmk: PT-Guard %.2f%%, Optimized %.2f%%", base, opt)
	if base <= 0 {
		t.Errorf("PT-Guard slowdown = %.3f%%, want positive", base)
	}
	if base > 8 {
		t.Errorf("PT-Guard slowdown = %.2f%%, implausibly high (paper: 3.6%% worst)", base)
	}
	// §V: the optimizations eliminate MAC computations for most data
	// reads, so the optimized slowdown must be well below the base one.
	if opt > base/2 {
		t.Errorf("optimized %.3f%% not well below base %.3f%%", opt, base)
	}
	// The guarded run verified PTE lines on walks.
	if cmp.Results[PTGuard].Guard.PTEWalkChecks == 0 {
		t.Error("no PTE walk checks recorded")
	}
	if cmp.Results[PTGuardOptimized].Guard.IdentifierSkips == 0 {
		t.Error("identifier optimization never skipped a MAC computation")
	}
}

func TestSlowdownScalesWithMPKI(t *testing.T) {
	// Fig. 6: slowdown is proportional to LLC MPKI. A low-MPKI workload
	// must suffer (weakly) less than the high-MPKI one.
	high, err := Compare(testProfile(t, "xalancbmk"), testWarmup, testInstructions, 5, 0, []Mode{PTGuard})
	if err != nil {
		t.Fatal(err)
	}
	low, err := Compare(testProfile(t, "leela"), testWarmup, testInstructions, 5, 0, []Mode{PTGuard})
	if err != nil {
		t.Fatal(err)
	}
	if low.SlowdownPct[PTGuard] > high.SlowdownPct[PTGuard] {
		t.Errorf("low-MPKI slowdown %.3f%% exceeds high-MPKI %.3f%%",
			low.SlowdownPct[PTGuard], high.SlowdownPct[PTGuard])
	}
	if low.SlowdownPct[PTGuard] > 1.0 {
		t.Errorf("leela slowdown = %.3f%%, paper says <1%% for low-MPKI", low.SlowdownPct[PTGuard])
	}
}

func TestSlowdownScalesWithMACLatency(t *testing.T) {
	// Fig. 7: higher MAC latency, higher slowdown.
	prof := testProfile(t, "lbm")
	at := func(lat int) float64 {
		cmp, err := Compare(prof, testWarmup, testInstructions, 9, lat, []Mode{PTGuard})
		if err != nil {
			t.Fatal(err)
		}
		return cmp.SlowdownPct[PTGuard]
	}
	s5, s20 := at(5), at(20)
	t.Logf("lbm: 5cyc %.2f%%, 20cyc %.2f%%", s5, s20)
	if s20 <= s5 {
		t.Errorf("slowdown at 20 cycles (%.3f%%) not above 5 cycles (%.3f%%)", s20, s5)
	}
}

func TestSummarize(t *testing.T) {
	profiles := []string{"xalancbmk", "leela", "mcf"}
	cmps := make([]Comparison, 0, len(profiles))
	for _, name := range profiles {
		c, err := Compare(testProfile(t, name), testWarmup/2, testInstructions/2, 13, 0, []Mode{PTGuard})
		if err != nil {
			t.Fatal(err)
		}
		cmps = append(cmps, c)
	}
	sum, err := Summarize(cmps, PTGuard)
	if err != nil {
		t.Fatal(err)
	}
	if sum.WorstName != "xalancbmk" {
		t.Errorf("worst workload = %s, want xalancbmk", sum.WorstName)
	}
	if sum.MeanPct <= 0 || sum.GeoMeanIPC >= 1 {
		t.Errorf("summary = %+v", sum)
	}
	if _, err := Summarize(nil, PTGuard); err == nil {
		t.Error("empty summary accepted")
	}
}

func TestDetectionUnderAttackInFullSystem(t *testing.T) {
	// End to end: run, corrupt a leaf PTE line in DRAM, flush caches,
	// keep running; the guard must catch the walk and never hand out a
	// tampered translation.
	prof := testProfile(t, "leela")
	s, err := NewSystem(Config{Mode: PTGuard, Seed: 21}, prof)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(50_000); err != nil {
		t.Fatal(err)
	}
	h, err := dram.NewHammerer(s.dev, dram.HammerConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Flip a PFN bit in every leaf PT line: privilege-escalation style.
	leaves := s.Tables().LeafTablePages()
	if len(leaves) == 0 {
		t.Fatal("no leaf tables")
	}
	for _, page := range leaves {
		h.FlipLineBits(page, []int{14})
	}
	s.flushCaches()
	res, err := s.Run(50_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckFails == 0 {
		t.Fatal("no integrity failure detected after tampering every leaf table")
	}
}

func TestOutOfOrderCoreModel(t *testing.T) {
	c, err := cpu.New(cpu.OutOfOrder())
	if err != nil {
		t.Fatal(err)
	}
	c.Retire(100)
	c.StallMemory(100)
	// 100 * 0.5 + 100 * 0.6 = 110.
	if math.Abs(c.Cycles()-110) > 1e-9 {
		t.Errorf("cycles = %v, want 110", c.Cycles())
	}
	if _, err := cpu.New(cpu.Config{MLPOverlap: 1.5}); err == nil {
		t.Error("bad MLPOverlap accepted")
	}
	inOrder, _ := cpu.New(cpu.Config{})
	inOrder.Retire(10)
	if inOrder.IPC() != 1 {
		t.Errorf("in-order no-stall IPC = %v, want 1", inOrder.IPC())
	}
	if inOrder.Seconds() <= 0 {
		t.Error("Seconds not positive")
	}
}

func TestHugePagesReduceWalksAndSlowdown(t *testing.T) {
	// §III: "larger page sizes would only reduce the slowdown by reducing
	// frequency of page-table-walks."
	prof := testProfile(t, "xalancbmk")
	run := func(huge bool, mode Mode) Result {
		s, err := NewSystem(Config{Mode: mode, Seed: 17, HugePages: huge}, prof)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(testWarmup); err != nil {
			t.Fatal(err)
		}
		s.ResetStats()
		res, err := s.Run(testInstructions)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	small := run(false, Baseline)
	huge := run(true, Baseline)
	if huge.PageWalks >= small.PageWalks {
		t.Errorf("huge-page walks %d not below 4K walks %d", huge.PageWalks, small.PageWalks)
	}
	slow := func(hp bool) float64 {
		base := run(hp, Baseline)
		guard := run(hp, PTGuard)
		return 100 * (guard.Cycles/base.Cycles - 1)
	}
	s4k, s2m := slow(false), slow(true)
	t.Logf("xalancbmk slowdown: 4K %.2f%%, 2M %.2f%%; walks %d vs %d",
		s4k, s2m, small.PageWalks, huge.PageWalks)
	if s2m > s4k+0.2 {
		t.Errorf("huge pages increased slowdown: %.2f%% vs %.2f%%", s2m, s4k)
	}
}

func TestMultiSystemSharedInterference(t *testing.T) {
	profLBM := testProfile(t, "lbm")
	profLeela := testProfile(t, "leela")
	mix := []workload.Profile{profLBM, profLeela, profLBM, profLeela}
	ms, err := NewMultiSystem(Config{Mode: Baseline, Seed: 5, Core: cpu.OutOfOrder()}, mix)
	if err != nil {
		t.Fatal(err)
	}
	results, err := ms.Run(60_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d, want 4", len(results))
	}
	for i, r := range results {
		if r.Instructions != 60_000 {
			t.Errorf("core %d instructions = %d", i, r.Instructions)
		}
		if r.CheckFails != 0 {
			t.Errorf("core %d saw check failures on baseline", i)
		}
	}
	// lbm cores must be more memory-bound than leela cores.
	if results[0].LLCMPKI <= results[1].LLCMPKI {
		t.Errorf("lbm MPKI %.1f not above leela %.1f", results[0].LLCMPKI, results[1].LLCMPKI)
	}
	// Interference: a core sharing the channel with three others must run
	// no faster than the same core alone.
	alone, err := NewSystem(Config{Mode: Baseline, Seed: 5, Core: cpu.OutOfOrder()}, profLBM)
	if err != nil {
		t.Fatal(err)
	}
	aloneRes, err := alone.Run(60_000)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Cycles < aloneRes.Cycles {
		t.Errorf("shared-channel core faster (%.0f cyc) than solo (%.0f cyc)",
			results[0].Cycles, aloneRes.Cycles)
	}
	if _, err := ms.Run(0, 0); err == nil {
		t.Error("zero instructions accepted")
	}
	if _, err := NewMultiSystem(Config{Mode: Baseline}, nil); err == nil {
		t.Error("empty mix accepted")
	}
}

// checkMulticoreBelowSingleCore: §VII-C — out-of-order cores on a shared,
// contended channel shrink PT-Guard's relative overhead below the
// single-core figure (0.5% avg vs 1.3% in the paper) while it stays
// positive.
func checkMulticoreBelowSingleCore(t *testing.T, prof workload.Profile,
	warmup, instr, singleWarmup, singleInstr int, seed uint64, macLatency int) {
	t.Helper()
	mix := MulticoreMix{Name: "lbm-SAME", Workloads: []workload.Profile{prof, prof, prof, prof}}
	multi, err := CompareMulticore(mix, warmup, instr, seed, macLatency)
	if err != nil {
		t.Fatal(err)
	}
	single, err := Compare(prof, singleWarmup, singleInstr, seed, macLatency, []Mode{PTGuard})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("lbm seed %d: single %.2f%%, shared-device 4-core %.2f%%",
		seed, single.SlowdownPct[PTGuard], multi.SlowdownPct)
	if multi.SlowdownPct <= 0 {
		t.Errorf("multicore slowdown = %.3f%%, want positive", multi.SlowdownPct)
	}
	if multi.SlowdownPct >= single.SlowdownPct[PTGuard] {
		t.Errorf("multicore %.3f%% not below single-core %.3f%%",
			multi.SlowdownPct, single.SlowdownPct[PTGuard])
	}
	if _, err := CompareMulticore(MulticoreMix{}, 0, 100, 1, 0); err == nil {
		t.Error("empty mix accepted")
	}
}

func TestMulticoreSlowdownBelowSingleCore(t *testing.T) {
	prof := testProfile(t, "lbm")
	checkMulticoreBelowSingleCore(t, prof, testWarmup/4, testInstructions/8,
		testWarmup/2, testInstructions/2, 31, 0)
}

func TestCompareMulticoreShared(t *testing.T) {
	prof := testProfile(t, "lbm")
	checkMulticoreBelowSingleCore(t, prof, 20_000, 40_000, 20_000, 40_000, 9, 10)
}

func TestPageTableChurn(t *testing.T) {
	// Live kernel page migration: PTE lines are rewritten through the
	// guard mid-run; translations stay correct and no spurious integrity
	// failures appear.
	prof := testProfile(t, "leela")
	s, err := NewSystem(Config{Mode: PTGuard, Seed: 23, ChurnEvery: 500}, prof)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(100_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Churns == 0 {
		t.Fatal("no churn happened")
	}
	if res.CheckFails != 0 {
		t.Fatalf("churn caused %d spurious integrity failures", res.CheckFails)
	}
	// The guard saw the migration writes as protected PTE lines.
	if res.Guard.ProtectedWrites == 0 {
		t.Error("no protected writes observed during churn")
	}
	t.Logf("churns=%d protectedWrites=%d walks=%d", res.Churns, res.Guard.ProtectedWrites, res.PageWalks)
	// Churn invalidates the TLB: walks must be far above the no-churn run.
	quiet, err := NewSystem(Config{Mode: PTGuard, Seed: 23}, prof)
	if err != nil {
		t.Fatal(err)
	}
	qres, err := quiet.Run(100_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.PageWalks <= qres.PageWalks {
		t.Errorf("churn walks %d not above quiet walks %d", res.PageWalks, qres.PageWalks)
	}
}

func TestDirtyEvictionsReachTheController(t *testing.T) {
	// Stores dirty L1 lines; capacity evictions must post writebacks
	// through the memory controller, where PT-Guard's write-path pattern
	// match runs (§IV-B covers *all* DRAM writes).
	s, err := NewSystem(Config{Mode: PTGuard, Seed: 3}, testProfile(t, "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(100_000)
	if err != nil {
		t.Fatal(err)
	}
	// The L1 must have produced dirty writebacks (30% of refs are stores
	// over a thrashing footprint), and they must reach the controller.
	if wb := s.l1d.Stats().Writebacks; wb == 0 {
		t.Error("no dirty L1 writebacks despite stores")
	}
	_ = res
	if res.Guard.Writes == 0 {
		t.Error("guard write path never exercised")
	}
	if s.Controller().Guard() == nil {
		t.Error("Controller accessor broken")
	}
}
