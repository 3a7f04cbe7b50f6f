package sim

import (
	"fmt"
	"testing"
)

// TestMACUnitCounterIdentities reconciles the memory controller's MAC
// cycle ledger with the guard's MAC counters: every MAC the guard computes
// on the controller's read or write path is charged the MAC latency exactly
// once, and every such MAC costs four QARMA-128 chunk encryptions. The
// identities must hold from construction (the table flush runs through the
// batched write path) through warm-up, and again for the measured region
// after ResetStats.
func TestMACUnitCounterIdentities(t *testing.T) {
	prof := testProfile(t, "omnetpp")
	for _, mode := range []Mode{PTGuard, PTGuardOptimized} {
		for _, churn := range []int{0, 250} {
			for _, lat := range []int{1, 10, 16} {
				name := fmt.Sprintf("%s/churn=%d/lat=%d", mode, churn, lat)
				t.Run(name, func(t *testing.T) {
					s, err := NewSystem(Config{Mode: mode, Seed: 3, MACLatencyCycles: lat, ChurnEvery: churn}, prof)
					if err != nil {
						t.Fatal(err)
					}
					checkMACIdentities(t, s, lat, "construction")
					if _, err := s.Run(2000); err != nil {
						t.Fatal(err)
					}
					checkMACIdentities(t, s, lat, "warm-up")
					if g := s.ctrl.Guard().Counters(); g.WriteMACComputes == 0 || g.ReadMACComputes == 0 {
						t.Fatalf("%d write and %d read MACs by the end of warm-up; the identities are vacuous",
							g.WriteMACComputes, g.ReadMACComputes)
					}
					s.ResetStats()
					checkMACIdentities(t, s, lat, "reset")
					if _, err := s.Run(8000); err != nil {
						t.Fatal(err)
					}
					checkMACIdentities(t, s, lat, "measured")
				})
			}
		}
	}
}

func checkMACIdentities(t *testing.T, s *System, lat int, stage string) {
	t.Helper()
	g := s.ctrl.Guard().Counters()
	m := s.ctrl.Stats()
	if want := uint64(lat) * g.WriteMACComputes; m.WriteMACCycles != want {
		t.Errorf("%s: memctrl WriteMACCycles = %d, want latency %d x %d write MACs = %d",
			stage, m.WriteMACCycles, lat, g.WriteMACComputes, want)
	}
	if want := uint64(lat) * g.ReadMACComputes; m.ReadMACCycles != want {
		t.Errorf("%s: memctrl ReadMACCycles = %d, want latency %d x %d read MACs = %d",
			stage, m.ReadMACCycles, lat, g.ReadMACComputes, want)
	}
	if want := 4 * (g.WriteMACComputes + g.ReadMACComputes); g.ChunkEncrypts != want {
		t.Errorf("%s: ChunkEncrypts = %d, want 4 x (%d write + %d read MACs) = %d",
			stage, g.ChunkEncrypts, g.WriteMACComputes, g.ReadMACComputes, want)
	}
}
