package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"ptguard/internal/cache"
	"ptguard/internal/dram"
	"ptguard/internal/workload"
)

// resultDigest pins every simulated statistic of a small run matrix: three
// profiles (low, mid and high LLC MPKI) × the three modes × three settings
// (4 KB pages, 2 MB pages with spanned TLB entries, and page-table churn
// with its TLB flushes and L2/L3 invalidations), plus one shared-device
// multicore mix. A host-side speed-up of the cache, TLB, workload or DRAM
// layers must leave it unchanged; only a change meant to move simulated
// results may update it, and it must say so.
const resultDigest = "1af600a6b2274ed68dbba667c0ac3feecb40f7f155bcc0315ad069dcfbb66a2d"

// digestRun is one matrix point's record: the full-precision Result plus
// the per-level cache and DRAM device counters it does not carry.
type digestRun struct {
	Key        string
	Result     Result
	L1, L2, L3 cache.Stats
	DRAM       dram.Stats
}

func TestResultDigestPinned(t *testing.T) {
	const (
		warmup       = 5000
		instructions = 40000
		seed         = 17
	)
	settings := []struct {
		name string
		set  func(*Config)
	}{
		{"4k", func(*Config) {}},
		{"huge", func(c *Config) { c.HugePages = true }},
		{"churn", func(c *Config) { c.ChurnEvery = 250 }},
	}
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, name := range []string{"leela", "omnetpp", "xalancbmk"} {
		prof := testProfile(t, name)
		for _, mode := range []Mode{Baseline, PTGuard, PTGuardOptimized} {
			for _, st := range settings {
				cfg := Config{Mode: mode, Seed: seed}
				st.set(&cfg)
				s, err := NewSystem(cfg, prof)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Run(warmup); err != nil {
					t.Fatal(err)
				}
				s.ResetStats()
				res, err := s.Run(instructions)
				if err != nil {
					t.Fatal(err)
				}
				rec := digestRun{
					Key:    fmt.Sprintf("%s/%s/%s", name, mode, st.name),
					Result: res,
					L1:     s.l1d.Stats(), L2: s.l2.Stats(), L3: s.l3.Stats(),
					DRAM: s.ctrl.Device().Stats(),
				}
				if err := enc.Encode(rec); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	prof := testProfile(t, "omnetpp")
	mix := MulticoreMix{Name: "omnetpp-SAME", Workloads: []workload.Profile{prof, prof, prof, prof}}
	mc, err := CompareMulticore(mix, warmup, instructions, seed, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(mc); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != resultDigest {
		t.Errorf("simulated results changed: digest %s, want %s", got, resultDigest)
	}
}
