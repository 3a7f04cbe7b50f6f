package sim

import (
	"testing"

	"ptguard/internal/obs"
)

// TestResetStatsClearsRecoveryAndWalkTrace is the regression test for the
// warm-up reset: recovery stats and the walk trace accumulated during
// warm-up must not leak into the measured region.
func TestResetStatsClearsRecoveryAndWalkTrace(t *testing.T) {
	s, err := NewSystem(Config{
		Mode: PTGuard, Seed: 11, EnableRecovery: true, TraceWalks: true,
	}, testProfile(t, "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up: corrupt a live table line so the walk raises a recovery
	// event, and run long enough to record walk-trace fetches.
	corruptLine(t, s, leafLineOf(t, s, s.vbase))
	s.FlushCaches()
	if _, err := s.Run(20_000); err != nil {
		t.Fatal(err)
	}
	if s.RecoveryStats() == (RecoveryStats{}) {
		t.Fatal("warm-up did not exercise recovery; the reset has nothing to prove")
	}
	if len(s.WalkTrace()) == 0 {
		t.Fatal("warm-up recorded no walk trace")
	}

	s.ResetStats()

	if st := s.RecoveryStats(); st != (RecoveryStats{}) {
		t.Errorf("ResetStats kept recovery stats: %+v", st)
	}
	if wt := s.WalkTrace(); len(wt) != 0 {
		t.Errorf("ResetStats kept %d walk-trace entries", len(wt))
	}
	// And the measured region starts clean.
	res, err := s.Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery.Raised != 0 {
		t.Errorf("measured region inherited recovery events: %+v", res.Recovery)
	}

	// Page walks and churns are measurement counters too: a one-instruction
	// measured region after a churning warm-up reports at most one walk and
	// no churn, in the Result and in the published obs counters alike.
	o := obs.New(obs.Options{})
	c, err := NewSystem(Config{Mode: PTGuard, Seed: 11, ChurnEvery: 500, Obs: o},
		testProfile(t, "xalancbmk"))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := c.Run(50_000)
	if err != nil {
		t.Fatal(err)
	}
	if warm.PageWalks == 0 || warm.Churns == 0 {
		t.Fatalf("warm-up had %d walks and %d churns; the reset has nothing to prove",
			warm.PageWalks, warm.Churns)
	}
	c.ResetStats()
	one, err := c.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if one.Instructions != 1 || one.PageWalks > 1 || one.Churns != 0 {
		t.Errorf("measured region of 1 instruction reports %d instructions, %d walks, %d churns",
			one.Instructions, one.PageWalks, one.Churns)
	}
	ctr := o.Registry().Snapshot().Counters
	if ctr["sim.page_walks"] != one.PageWalks || ctr["walker.walks"] != one.PageWalks {
		t.Errorf("obs page walks sim=%d walker=%d, want %d",
			ctr["sim.page_walks"], ctr["walker.walks"], one.PageWalks)
	}
	if ctr["sim.churns"] != 0 || ctr["walker.mem_accesses"] > 4 {
		t.Errorf("obs counters kept warm-up activity: churns=%d walker.mem_accesses=%d",
			ctr["sim.churns"], ctr["walker.mem_accesses"])
	}
}

// TestObservedRunCollectsMetrics wires an Observer through a full run and
// checks all three pillars fill in: registry counters, periodic + final
// series points, and trace events from the instrumented components.
func TestObservedRunCollectsMetrics(t *testing.T) {
	o := obs.New(obs.Options{SnapshotEvery: 5_000})
	s, err := NewSystem(Config{Mode: PTGuard, Seed: 11, Obs: o}, testProfile(t, "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(20_000)
	if err != nil {
		t.Fatal(err)
	}

	rm := o.RunMetrics(true)
	if rm.Counters["cpu.instructions"] != res.Instructions {
		t.Errorf("cpu.instructions = %d, want %d",
			rm.Counters["cpu.instructions"], res.Instructions)
	}
	if rm.Counters["sim.page_walks"] != res.PageWalks {
		t.Errorf("sim.page_walks = %d, want %d",
			rm.Counters["sim.page_walks"], res.PageWalks)
	}
	if rm.Counters["memctrl.reads"] == 0 {
		t.Error("memctrl.reads not published")
	}
	// 20k instructions at a 5k cadence: at least 3 periodic snapshots plus
	// the run-final one.
	if len(rm.Series) < 4 {
		t.Errorf("series points = %d, want >= 4", len(rm.Series))
	}
	last := rm.Series[len(rm.Series)-1]
	if last.Instructions != res.Instructions {
		t.Errorf("final snapshot at %d instructions, want %d",
			last.Instructions, res.Instructions)
	}
	if len(rm.Trace) == 0 {
		t.Fatal("no trace events recorded")
	}
	cats := map[string]bool{}
	for _, ev := range rm.Trace {
		cats[ev.Cat] = true
	}
	for _, want := range []string{"mmu", "mac", "dram"} {
		if !cats[want] {
			t.Errorf("no %q events in trace (got categories %v)", want, cats)
		}
	}
	// Events are stamped with the core clock, so cycles must be plausible.
	for _, ev := range rm.Trace[:10] {
		if ev.Cycle > uint64(res.Cycles) {
			t.Errorf("event %s/%s stamped at cycle %d beyond run end %.0f",
				ev.Cat, ev.Name, ev.Cycle, res.Cycles)
		}
	}
}

// TestCompareObservedPerModeMetrics: every requested mode (and the implicit
// baseline) yields its own RunMetrics, and the unobserved Compare path is
// unchanged by observation (determinism guard).
func TestCompareObservedPerModeMetrics(t *testing.T) {
	prof := testProfile(t, "mcf")
	modes := []Mode{PTGuard}
	plain, err := Compare(prof, 5_000, 10_000, 42, 10, modes)
	if err != nil {
		t.Fatal(err)
	}
	observed, metrics, err := CompareObserved(prof, 5_000, 10_000, 42, 10, modes,
		&obs.Options{SnapshotEvery: 2_500})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Results[Baseline].Cycles != observed.Results[Baseline].Cycles {
		t.Errorf("observation changed baseline cycles: %.0f vs %.0f",
			plain.Results[Baseline].Cycles, observed.Results[Baseline].Cycles)
	}
	for _, m := range []Mode{Baseline, PTGuard} {
		rm := metrics[m]
		if rm == nil {
			t.Fatalf("no metrics for mode %s", m)
		}
		if rm.Counters["cpu.instructions"] == 0 {
			t.Errorf("mode %s: cpu.instructions not published", m)
		}
		if len(rm.Series) < 2 {
			t.Errorf("mode %s: series points = %d, want >= 2", m, len(rm.Series))
		}
	}
	if metrics[Baseline].Counters["guard.reads"] != 0 {
		t.Error("baseline run published guard activity")
	}
	if metrics[PTGuard].Counters["guard.reads"] == 0 {
		t.Error("ptguard run published no guard activity")
	}
}

// BenchmarkObsDisabledOverhead compares a run with observability disabled
// (nil Observer) against an enabled one. CI's bench smoke runs this with
// -benchtime=1x as a build-and-run check; comparing the two sub-benchmark
// timings bounds the disabled-path overhead (budget: <2%).
func BenchmarkObsDisabledOverhead(b *testing.B) {
	run := func(b *testing.B, mkObs func() *obs.Observer) {
		b.Helper()
		prof := testProfile(b, "mcf")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := NewSystem(Config{Mode: PTGuard, Seed: 42, Obs: mkObs()}, prof)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Run(20_000); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) {
		run(b, func() *obs.Observer { return nil })
	})
	b.Run("enabled", func(b *testing.B) {
		run(b, func() *obs.Observer { return obs.New(obs.Options{SnapshotEvery: 5_000}) })
	})
}

// TestMACMemoReconciles checks the guard's published MAC-memo lookups
// against its MAC counters on a PT-Guard run with correction off: every
// MAC computation is exactly one memo lookup, except the correction
// search's batched MACs and the write MACs the table flush defers to the
// first read, which never touch the memo. The identity holds over the warm-up, which
// includes the table flush, and again after ResetStats zeroes both sides.
func TestMACMemoReconciles(t *testing.T) {
	o := obs.New(obs.Options{})
	s, err := NewSystem(Config{Mode: PTGuard, Seed: 11, ChurnEvery: 2_000, Obs: o},
		testProfile(t, "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string, needDeferred bool) {
		t.Helper()
		c := o.Registry().Snapshot().Counters
		hits, misses := c["guard.mac_memo_hits"], c["guard.mac_memo_misses"]
		scalar := c["guard.write_mac_computes"] + c["guard.read_mac_computes"] -
			c["guard.batched_mac_computes"] - c["guard.deferred_write_macs"]
		if hits+misses != scalar {
			t.Errorf("%s: memo hits %d + misses %d = %d, want scalar MACs %d",
				stage, hits, misses, hits+misses, scalar)
		}
		if hits == 0 || misses == 0 {
			t.Errorf("%s: memo hits %d, misses %d; want both > 0", stage, hits, misses)
		}
		if needDeferred && c["guard.deferred_write_macs"] == 0 {
			t.Errorf("%s: no deferred write MACs; the identity's subtraction is untested", stage)
		}
	}
	if _, err := s.Run(20_000); err != nil {
		t.Fatal(err)
	}
	check("warm-up", true)
	s.ResetStats()
	if _, err := s.Run(20_000); err != nil {
		t.Fatal(err)
	}
	check("measured", false)
}
