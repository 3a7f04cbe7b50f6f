package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"ptguard/internal/dram"
	"ptguard/internal/memctrl"
	"ptguard/internal/pte"
	"ptguard/internal/workload"
)

// sequential is simulate without the pipeline: the reference every
// pipelined run must equal.
func sequential(cfg Config, prof workload.Profile, warmup, instructions int, mirrors []Mode) (Result, []*memctrl.Controller, error) {
	return measure(func() (*System, []*memctrl.Controller, error) {
		return newMirroredSystem(cfg, prof, mirrors)
	}, warmup, instructions, false)
}

// sameRun fails t unless the pipelined run (got, gotMCs, err) equals the
// sequential one field for field, mirrors included, with the same error.
func sameRun(t *testing.T, stage string, got Result, gotMCs []*memctrl.Controller, err error, want Result, wantMCs []*memctrl.Controller, werr error) {
	t.Helper()
	if fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("%s: error %v, the sequential machine's %v", stage, err, werr)
	}
	if d := firstDiff(got, want); d != "" {
		t.Fatalf("%s: the pipelined run differs in %s:\n %+v\nwant the sequential\n %+v", stage, d, got, want)
	}
	if len(gotMCs) != len(wantMCs) {
		t.Fatalf("%s: %d mirrors, the sequential machine %d", stage, len(gotMCs), len(wantMCs))
	}
	for i := range wantMCs {
		if g, w := gotMCs[i].Stats(), wantMCs[i].Stats(); g != w {
			t.Fatalf("%s: mirror %d stats %+v, want %+v", stage, i, g, w)
		}
		if g, w := gotMCs[i].Guard().Counters(), wantMCs[i].Guard().Counters(); g != w {
			t.Fatalf("%s: mirror %d guard counters %+v, want %+v", stage, i, g, w)
		}
	}
}

// flippedBuild builds cfg's machine with its mirrors and flips one PFN bit
// of the PML4 entry that the first walk reads, in the machine's DRAM only.
func flippedBuild(tb testing.TB, cfg Config, prof workload.Profile, mirrors []Mode) func() (*System, []*memctrl.Controller, error) {
	return func() (*System, []*memctrl.Controller, error) {
		s, mcs, err := newMirroredSystem(cfg, prof, mirrors)
		if err != nil {
			return nil, nil, err
		}
		h, err := dram.NewHammerer(s.dev, dram.HammerConfig{Seed: 1})
		if err != nil {
			tb.Fatal(err)
		}
		ea := s.Tables().Root() + (s.vbase>>39&0x1FF)*8
		h.FlipLineBits(ea&^uint64(pte.LineBytes-1), []int{int(ea%pte.LineBytes)*8 + 13})
		return s, mcs, nil
	}
}

// TestPipelineFallsBackOnDivergence: with a bit flipped in the table line
// the first walk reads, a pipelined Run reports the divergence, and
// measure, which simulate runs, returns exactly the sequential machine's
// Result and error: integrity failures under PT-Guard, a walk through
// another table under the baseline, and the mirror's divergence when only
// the machine's own DRAM holds the flip.
func TestPipelineFallsBackOnDivergence(t *testing.T) {
	prof := testProfile(t, "mcf")
	for _, c := range []struct {
		mode    Mode
		mirrors []Mode
	}{
		{PTGuard, nil},
		{Baseline, nil},
		{PTGuard, []Mode{PTGuardOptimized}},
	} {
		stage := fmt.Sprintf("%s mirrored by %v", c.mode, c.mirrors)
		cfg := Config{Mode: c.mode, Seed: 5, MACLatencyCycles: 10}
		build := flippedBuild(t, cfg, prof, c.mirrors)
		s, _, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if !s.usePipeline() {
			t.Fatalf("%s: not pipelined", stage)
		}
		if _, err := s.Run(2_000); !errors.Is(err, errDiverged) {
			t.Fatalf("%s: pipelined Run returned %v, want a divergence", stage, err)
		}
		got, gotMCs, err := measure(build, 1_000, 4_000, true)
		want, wantMCs, werr := measure(build, 1_000, 4_000, false)
		sameRun(t, stage, got, gotMCs, err, want, wantMCs, werr)
		switch {
		case c.mirrors != nil:
			if werr == nil {
				t.Errorf("%s: no mirror divergence", stage)
			}
		case c.mode == PTGuard:
			if want.CheckFails == 0 {
				t.Errorf("%s: no integrity failure", stage)
			}
		default:
			clean, _, err := sequential(cfg, prof, 1_000, 4_000, nil)
			if err != nil {
				t.Fatal(err)
			}
			if clean == want {
				t.Errorf("%s: the flip changed nothing", stage)
			}
		}
	}
}

// memoryGoroutines counts the goroutines serving a pipelined memory side.
func memoryGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*System).serveMemory")
}

// TestNoMemoryGoroutineOutlivesSimulate: every goroutine a pipelined run
// starts has exited when simulate returns, after a success, an error and
// a fallback.
func TestNoMemoryGoroutineOutlivesSimulate(t *testing.T) {
	prof := testProfile(t, "lbm")
	cfg := Config{Mode: PTGuard, Seed: 3, MACLatencyCycles: 10}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"success", func() error {
			_, _, err := simulate(cfg, prof, 1_000, 3_000, []Mode{PTGuardOptimized})
			return err
		}},
		{"error", func() error {
			if _, _, err := simulate(cfg, prof, 1_000, 0, nil); err == nil {
				return errors.New("a zero-instruction window was accepted")
			}
			return nil
		}},
		{"fallback", func() error {
			r, _, err := measure(flippedBuild(t, cfg, prof, nil), 1_000, 3_000, true)
			if err == nil && r.CheckFails == 0 {
				err = errors.New("the flip raised no integrity failure")
			}
			return err
		}},
	} {
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		// A goroutine that has reported may take a moment to exit.
		deadline := time.Now().Add(5 * time.Second)
		for n := memoryGoroutines(); n != 0; n = memoryGoroutines() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d memory-side goroutines outlive simulate", c.name, n)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// fuzzModeSets are the protected-mode sets a Compare machine runs: the
// first mode simulated, the rest mirrored.
var fuzzModeSets = [][]Mode{
	{PTGuard},
	{PTGuardOptimized},
	{PTGuard, PTGuardOptimized},
	{PTGuardOptimized, PTGuard},
}

// FuzzPipelinedMatchesSequential: for any profile, seed, warm-up of 0 to
// 2,000 instructions, window of 1 to 5,000, protected-mode set and MAC
// latency, simulate returns the sequential machine's Result field for
// field, mirrors included, and its pipelined run never diverges.
func FuzzPipelinedMatchesSequential(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint16(0), uint16(1), uint8(0), uint8(9))
	f.Add(uint8(7), uint64(0xBEEF), uint16(2000), uint16(4999), uint8(2), uint8(19))
	f.Add(uint8(12), uint64(42), uint16(500), uint16(3000), uint8(3), uint8(0))
	f.Add(uint8(24), uint64(7), uint16(1999), uint16(2500), uint8(1), uint8(31))
	profs := workload.Profiles()
	f.Fuzz(func(t *testing.T, profIdx uint8, seed uint64, warmup, instructions uint16, modeSet, macLatency uint8) {
		prof := profs[int(profIdx)%len(profs)]
		modes := fuzzModeSets[int(modeSet)%len(fuzzModeSets)]
		w, n := int(warmup)%2_001, 1+int(instructions)%5_000
		cfg := Config{Mode: modes[0], Seed: seed, MACLatencyCycles: 1 + int(macLatency)%32}
		stage := fmt.Sprintf("%s seed %#x, warm-up %d, %d instructions, modes %v, MAC latency %d", prof.Name, seed, w, n, modes, cfg.MACLatencyCycles)
		got, gotMCs, err := simulate(cfg, prof, w, n, modes[1:])
		want, wantMCs, werr := sequential(cfg, prof, w, n, modes[1:])
		sameRun(t, stage, got, gotMCs, err, want, wantMCs, werr)

		// simulate would hide a fallback, so run a pipelined machine by hand.
		s, _, err := newMirroredSystem(cfg, prof, modes[1:])
		if err != nil {
			t.Fatal(err)
		}
		if !s.usePipeline() {
			t.Fatalf("%s: not pipelined", stage)
		}
		if w > 0 {
			if _, err := s.Run(w); err != nil {
				t.Fatalf("%s: warm-up: %v", stage, err)
			}
			s.ResetStats()
		}
		if _, err := s.Run(n); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	})
}
