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

// sequential is the sequential machine of cfg, measured as simulate
// measures a pipelined one: the reference every pipelined run must equal.
// It also returns the machine's controller.
func sequential(cfg Config, prof workload.Profile, warmup, instructions int) (Result, *memctrl.Controller, error) {
	s, err := NewSystem(cfg, prof)
	if err != nil {
		return Result{}, nil, err
	}
	r, err := measure(s, warmup, instructions)
	return r, s.ctrl, err
}

// flipPML4 flips one PFN bit of the PML4 entry that s's first walk reads,
// in dev only, and returns the address of the flipped line.
func flipPML4(tb testing.TB, s *System, dev *dram.Device) uint64 {
	tb.Helper()
	h, err := dram.NewHammerer(dev, dram.HammerConfig{Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	ea := s.Tables().Root() + (s.vbase>>39&0x1FF)*8
	line := ea &^ uint64(pte.LineBytes-1)
	h.FlipLineBits(line, []int{int(ea%pte.LineBytes)*8 + 13})
	return line
}

// flipped builds cfg's machine with a PFN bit of the PML4 entry that the
// first walk reads flipped in the machine's DRAM only (flipPML4). It
// returns the machine and the address of the flipped line.
func flipped(tb testing.TB, cfg Config, prof workload.Profile) (*System, uint64) {
	tb.Helper()
	s, err := NewSystem(cfg, prof)
	if err != nil {
		tb.Fatal(err)
	}
	return s, flipPML4(tb, s, s.ctrl.Device())
}

// TestDivergedRunIsAnError: with a bit flipped in the table line the first
// walk reads, in the machine's own DRAM only, simulate returns an error
// wrapping errDiverged that names the walk and the side that answered it
// otherwise than the page tables, with and without a further side: an
// integrity failure under PT-Guard, another line under the baseline. With
// the flip in a further side's DRAM only, that side's walk fails. The
// sequential PT-Guard machine with the machine's flip reports integrity
// failures, which unprotected refuses.
func TestDivergedRunIsAnError(t *testing.T) {
	prof := testProfile(t, "mcf")
	cfg := Config{Mode: PTGuard, Seed: 5, MACLatencyCycles: 10}
	diverged := func(stage string, err error, line uint64, want string) {
		t.Helper()
		if !errors.Is(err, errDiverged) {
			t.Fatalf("%s: returned %v, want a divergence", stage, err)
		}
		if want := fmt.Sprintf("the walk read of %#x %s", line, want); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q, want it to say %q", stage, err, want)
		}
	}
	for _, c := range []struct {
		mode    Mode
		further []Mode
		want    string
	}{
		{PTGuard, nil, "failed on the ptguard side"},
		{PTGuard, []Mode{PTGuardOptimized}, "failed on the ptguard side"},
		{Baseline, nil, "returned another line than the page tables on the baseline side"},
	} {
		c2 := cfg
		c2.Mode = c.mode
		s, line := flipped(t, c2, prof)
		_, _, err := simulate(s, 1_000, 4_000, c.further)
		diverged(fmt.Sprintf("%s with further sides %v", c.mode, c.further), err, line, c.want)
	}

	// simulate's body, with the flip in the further side's DRAM only.
	s, err := NewSystem(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	opt := cfg
	opt.Mode = PTGuardOptimized
	c, err := newController(opt)
	if err == nil {
		err = s.flushTables(c)
	}
	if err != nil {
		t.Fatal(err)
	}
	line := flipPML4(t, s, c.Device())
	s.usePipeline([]side{{PTGuard, s.ctrl}, {PTGuardOptimized, c}})
	_, err = measure(s, 1_000, 4_000)
	diverged("flip on the further side", err, line, "failed on the ptguard-opt side")

	s, _ = flipped(t, cfg, prof)
	r, err := measure(s, 1_000, 4_000)
	if err != nil {
		t.Fatal(err)
	}
	if r.CheckFails == 0 {
		t.Fatal("the sequential machine raised no integrity failure")
	}
	if _, err := unprotected(r); err == nil {
		t.Error("unprotected accepted a run with integrity failures")
	}
}

// memoryGoroutines counts the goroutines serving a pipelined memory side.
func memoryGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*System).serveMemory")
}

// TestNoMemoryGoroutineOutlivesSimulate: every goroutine a pipelined run
// starts has exited when simulate returns, after a success, an error and
// a divergence.
func TestNoMemoryGoroutineOutlivesSimulate(t *testing.T) {
	prof := testProfile(t, "lbm")
	cfg := Config{Mode: PTGuard, Seed: 3, MACLatencyCycles: 10}
	machine := func() *System {
		s, err := NewSystem(cfg, prof)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"success", func() error {
			_, _, err := simulate(machine(), 1_000, 3_000, []Mode{PTGuardOptimized})
			return err
		}},
		{"error", func() error {
			if _, _, err := simulate(machine(), 1_000, 0, nil); err == nil {
				return errors.New("a zero-instruction window was accepted")
			}
			return nil
		}},
		{"divergence", func() error {
			s, _ := flipped(t, cfg, prof)
			if _, _, err := simulate(s, 1_000, 3_000, []Mode{PTGuardOptimized}); !errors.Is(err, errDiverged) {
				return fmt.Errorf("simulate returned %v, want a divergence", err)
			}
			return nil
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
// first mode the machine's, the rest further memory sides.
var fuzzModeSets = [][]Mode{
	{PTGuard},
	{PTGuardOptimized},
	{PTGuard, PTGuardOptimized},
	{PTGuardOptimized, PTGuard},
}

// FuzzPipelinedMatchesSequential: for any profile, seed, warm-up of 0 to
// 2,000 instructions, window of 1 to 5,000, protected-mode set and MAC
// latency, simulate never diverges and returns the sequential machine's
// Result field for field, and each further side ends with the controller
// and guard counters of its own mode's sequential machine.
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
		s, err := NewSystem(cfg, prof)
		if err != nil {
			t.Fatal(err)
		}
		got, sides, err := simulate(s, w, n, modes[1:])
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		want, _, err := sequential(cfg, prof, w, n)
		if err != nil {
			t.Fatalf("%s: sequential: %v", stage, err)
		}
		if d := firstDiff(got, want); d != "" {
			t.Fatalf("%s: the pipelined run differs in %s:\n %+v\nwant the sequential\n %+v", stage, d, got, want)
		}
		if len(sides) != len(modes)-1 {
			t.Fatalf("%s: %d further sides for modes %v", stage, len(sides), modes)
		}
		for i, sd := range sides {
			mcfg := cfg
			mcfg.Mode = modes[1+i]
			_, c, err := sequential(mcfg, prof, w, n)
			if err != nil {
				t.Fatalf("%s: sequential %s: %v", stage, mcfg.Mode, err)
			}
			if sd.mode != mcfg.Mode {
				t.Fatalf("%s: further side %d is %s, want %s", stage, i, sd.mode, mcfg.Mode)
			}
			if g, w := sd.ctrl.Stats(), c.Stats(); g != w {
				t.Fatalf("%s: %s side stats %+v, want its machine's %+v", stage, sd.mode, g, w)
			}
			if g, w := sd.ctrl.Guard().Counters(), c.Guard().Counters(); g != w {
				t.Fatalf("%s: %s side guard counters %+v, want its machine's %+v", stage, sd.mode, g, w)
			}
		}
	})
}
