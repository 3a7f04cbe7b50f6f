package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ptguard/internal/memctrl"
	"ptguard/internal/workload"
)

// Compare derives the unprotected baseline from a protected run instead of
// simulating it. The tests below hold that derivation to separately
// simulated machines, and check the counters and the Fig. 7 linearity it
// rests on.

const (
	derivedWarmup       = 2_000
	derivedInstructions = 10_000
)

// TestDerivedBaselineMatchesSimulated is the metamorphic check of the
// derivation: an unprotected run equals a protected run of the same seed
// less its read-MAC cycles. For all 25 profiles, two seeds, both protected
// modes and three MAC latencies, Compare's baseline must equal a baseline
// machine simulated on its own, field for field. The same must hold for a
// protected run with 2 MB pages and one with page-table churn, settings
// Compare does not take, through the derivation itself. Every protected
// run also reconciles its controller's MAC cycles and accesses with the
// guard's counters.
func TestDerivedBaselineMatchesSimulated(t *testing.T) {
	modes := []Mode{PTGuard, PTGuardOptimized}
	run := func(t *testing.T, cfg Config, prof workload.Profile) Result {
		t.Helper()
		r, err := runOne(cfg, prof, derivedWarmup, derivedInstructions)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, prof := range workload.Profiles() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []uint64{1, 0xBEEF} {
				base := run(t, Config{Mode: Baseline, Seed: seed}, prof)
				for _, lat := range []int{1, 10, 20} {
					cmp, err := Compare(prof, derivedWarmup, derivedInstructions, seed, lat, modes)
					if err != nil {
						t.Fatal(err)
					}
					if got := cmp.Results[Baseline]; got != base {
						t.Errorf("seed %#x, MAC latency %d: derived baseline\n %+v\nwant the simulated\n %+v", seed, lat, got, base)
					}
					for _, m := range modes {
						reconcileCounters(t, cmp.Results[m], lat, fmt.Sprintf("seed %#x/%s/lat %d", seed, m, lat))
					}
				}
			}
			for _, st := range []struct {
				name string
				cfg  Config
			}{
				{"huge", Config{Seed: 1, HugePages: true}},
				{"churn", Config{Seed: 0xBEEF, ChurnEvery: 250}},
			} {
				cfg := st.cfg
				cfg.Mode = Baseline
				base := run(t, cfg, prof)
				for _, m := range modes {
					cfg.Mode, cfg.MACLatencyCycles = m, 16
					r := run(t, cfg, prof)
					stage := st.name + "/" + m.String()
					reconcileCounters(t, r, 16, stage)
					got, err := unprotected(r)
					if err != nil {
						t.Fatalf("%s: %v", stage, err)
					}
					if got != base {
						t.Errorf("%s: derived baseline\n %+v\nwant the simulated\n %+v", stage, got, base)
					}
				}
			}
		})
	}
}

// reconcileCounters checks the counters the derivation rests on, for a run
// without correction: every read and write the controller served passed
// through the guard, and each MAC the guard computed was charged the MAC
// latency once.
func reconcileCounters(t *testing.T, r Result, lat int, stage string) {
	t.Helper()
	checkMACLedger(t, r.Guard, r.Ctrl, lat, stage)
	if r.Ctrl.Reads != r.Guard.Reads || r.Ctrl.Writes != r.Guard.Writes {
		t.Errorf("%s: controller served %d reads and %d writes, guard saw %d and %d",
			stage, r.Ctrl.Reads, r.Ctrl.Writes, r.Guard.Reads, r.Guard.Writes)
	}
	// The base design MACs every DRAM read, so a run without one would
	// not exercise the derivation. The optimized design may well compute
	// none in a short window.
	if r.Mode == PTGuard && r.Guard.ReadMACComputes == 0 {
		t.Errorf("%s: no read MAC computed; the derivation is not exercised", stage)
	}
}

// TestFig7LinearInMACLatency checks Fig. 7's shape exactly (§VII-A). The
// MAC latency changes only how long each read-MAC stalls the core, not how
// many there are, so on one seed every profile computes the same read MACs
// at 5, 10, 15 and 20 cycles, PT-Guard's slowdown is the latency times a
// constant, and the optimized design is never slower than the base one.
// The paper's averages, 0.7 / 1.3 / 2.0 / 2.6% at those latencies, grow
// the same way; at this test's short windows the values differ.
func TestFig7LinearInMACLatency(t *testing.T) {
	lats := []int{5, 10, 15, 20}
	modes := []Mode{PTGuard, PTGuardOptimized}
	for _, prof := range workload.Profiles() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			var first Comparison
			for i, lat := range lats {
				cmp, err := Compare(prof, derivedWarmup, derivedInstructions, 3, lat, modes)
				if err != nil {
					t.Fatal(err)
				}
				if opt, base := cmp.SlowdownPct[PTGuardOptimized], cmp.SlowdownPct[PTGuard]; opt > base {
					t.Errorf("MAC latency %d: optimized slowdown %.4f%% above PT-Guard's %.4f%%", lat, opt, base)
				}
				if i == 0 {
					first = cmp
					continue
				}
				for _, m := range modes {
					if got, want := cmp.Results[m].Guard.ReadMACComputes, first.Results[m].Guard.ReadMACComputes; got != want {
						t.Errorf("%s: %d read MACs at %d cycles, %d at %d", m, got, lat, want, lats[0])
					}
				}
				per, want := cmp.SlowdownPct[PTGuard]/float64(lat), first.SlowdownPct[PTGuard]/float64(lats[0])
				if math.Abs(per-want) > 1e-9*math.Abs(want) {
					t.Errorf("PT-Guard slowdown per MAC cycle %.12g%% at %d cycles, %.12g%% at %d", per, lat, want, lats[0])
				}
			}
		})
	}
}

func TestCompareRejectsBadRequests(t *testing.T) {
	prof := testProfile(t, "leela")
	for _, c := range []struct {
		name   string
		warmup int
		modes  []Mode
	}{
		{"negative warm-up", -5, []Mode{PTGuard}},
		{"no mode", 100, nil},
		{"baseline only", 100, []Mode{Baseline}},
	} {
		if _, err := Compare(prof, c.warmup, 1000, 1, 10, c.modes); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	mix := MulticoreMix{Name: "leela-SAME", Workloads: []workload.Profile{prof, prof, prof, prof}}
	if _, err := CompareMulticore(mix, -5, 1000, 1, 10); err == nil {
		t.Error("multicore: negative warm-up accepted")
	}
}

// TestUnprotectedPreconditions: a run with an integrity failure, a
// correction, a CTB-full event or a recovery is not a timing-only variant
// of the baseline, so the derivation refuses it and names the counter.
func TestUnprotectedPreconditions(t *testing.T) {
	for _, c := range []struct {
		want string
		r    Result
	}{
		{"check failures", Result{CheckFails: 1}},
		{"controller check failures", Result{Ctrl: memctrl.Stats{CheckFailures: 2}}},
		{"corrected reads", Result{Ctrl: memctrl.Stats{CorrectedReads: 1}}},
		{"CTB-full events", Result{Ctrl: memctrl.Stats{CollisionErrors: 1}}},
		{"recovery events", Result{Recovery: RecoveryStats{Raised: 1}}},
	} {
		if _, err := unprotected(c.r); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: error %v, want one naming %q", c.r, err, c.want)
		}
	}
}
