package sim

import (
	"testing"

	"ptguard/internal/dram"
	"ptguard/internal/memctrl"
	"ptguard/internal/obs"
	"ptguard/internal/pte"
	"ptguard/internal/workload"
)

// perLineSystem is the reference for NewSystem's table flush: a machine
// with the same tables whose memory system is replaced by a fresh device,
// guard and controller, built as NewSystem builds them, into which the
// tables are written one WriteLine at a time in address order.
func perLineSystem(t *testing.T, cfg Config, prof workload.Profile) *System {
	t.Helper()
	s, err := NewSystem(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := dram.NewDevice(dram.Geometry{}, dram.Timing{})
	if err != nil {
		t.Fatal(err)
	}
	guard, err := buildGuard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.ctrl, err = memctrl.New(dev, guard, cfg.ContentionCycles); err != nil {
		t.Fatal(err)
	}
	s.tables.Lines(func(addr uint64, line pte.Line) {
		if _, err := s.ctrl.WriteLine(addr, line); err != nil {
			t.Fatalf("reference flush of %#x: %v", addr, err)
		}
	})
	return s
}

// TestTableFlushMatchesPerLineWrites pins NewSystem's batched table flush
// to the per-line WriteLine loop it replaced: the same DRAM image, row
// activations, controller and device statistics, CTB and guard counters,
// and the same Result when both machines then run (which catches state
// the other checks miss, such as the open rows). It also pins how the
// flush gets there: it computes no tag on the host, deferring every write
// MAC to the line's first read, and reading a line then gives the per-line
// reference image.
func TestTableFlushMatchesPerLineWrites(t *testing.T) {
	cfgs := []Config{
		{Mode: Baseline, Seed: 31},
		{Mode: PTGuard, Seed: 31},
		{Mode: PTGuardOptimized, Seed: 31},
		{Mode: PTGuard, Seed: 32, HugePages: true},
		{Mode: PTGuardOptimized, Seed: 33, ContentionCycles: 25},
	}
	for _, cfg := range cfgs {
		name := cfg.Mode.String()
		if cfg.HugePages {
			name += "/huge"
		}
		if cfg.ContentionCycles != 0 {
			name += "/contention"
		}
		t.Run(name, func(t *testing.T) {
			prof := testProfile(t, "xalancbmk")
			s, err := NewSystem(cfg, prof)
			if err != nil {
				t.Fatal(err)
			}
			ref := perLineSystem(t, cfg, prof)

			// Before anything reads a line: no memo lookup or other
			// host-side tag; every charged write MAC is deferred.
			if g := s.ctrl.Guard(); g != nil {
				reg := obs.NewRegistry()
				g.PublishObs(reg)
				c := reg.Snapshot().Counters
				if host := c["guard.mac_memo_hits"] + c["guard.mac_memo_misses"]; host != 0 {
					t.Errorf("flush computed %d tags on the host, want 0", host)
				}
				if d, w := c["guard.deferred_write_macs"], g.Counters().WriteMACComputes; d != w || d == 0 {
					t.Errorf("flush deferred %d of %d write MACs, want all of them (> 0)", d, w)
				}
			}

			dev, refDev := s.ctrl.Device(), ref.ctrl.Device()
			if dev.StoredLines() != refDev.StoredLines() {
				t.Fatalf("stored lines = %d, want %d", dev.StoredLines(), refDev.StoredLines())
			}
			refDev.Lines(func(addr uint64, line pte.Line) {
				if !dev.Contains(addr) || dev.ReadLine(addr) != line {
					t.Errorf("line %#x differs from the per-line flush", addr)
				}
				if got, want := dev.Activations(addr), refDev.Activations(addr); got != want {
					t.Errorf("row of %#x: %d activations, want %d", addr, got, want)
				}
			})
			if dev.Stats() != refDev.Stats() {
				t.Errorf("dram stats = %+v, want %+v", dev.Stats(), refDev.Stats())
			}
			if s.ctrl.Stats() != ref.ctrl.Stats() {
				t.Errorf("memctrl stats = %+v, want %+v", s.ctrl.Stats(), ref.ctrl.Stats())
			}
			if g, rg := s.ctrl.Guard(), ref.ctrl.Guard(); g != nil {
				if g.CTBLen() != rg.CTBLen() {
					t.Errorf("CTB holds %d lines, want %d", g.CTBLen(), rg.CTBLen())
				}
				gc, rc := g.Counters(), rg.Counters()
				if rc.WriteMACComputes == 0 {
					t.Error("reference flush computed no MACs; the comparison proves nothing")
				}
				if gc != rc {
					t.Errorf("guard counters = %+v, want %+v", gc, rc)
				}
			} else if cfg.Mode != Baseline {
				t.Fatal("protected system has no guard")
			}

			got, err := s.Run(20_000)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Run(20_000)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("run after the batched flush = %+v, want %+v", got, want)
			}
		})
	}
}

// BenchmarkNewSystem times building one simulated machine for xalancbmk:
// DRAM device, guard, controller, page-table population and the table
// flush through the controller.
func BenchmarkNewSystem(b *testing.B) {
	prof := testProfile(b, "xalancbmk")
	for _, mode := range []Mode{Baseline, PTGuard, PTGuardOptimized} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewSystem(Config{Mode: mode, Seed: 1}, prof); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
