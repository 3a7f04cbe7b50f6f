package sim

import (
	"strings"
	"testing"

	"ptguard/internal/workload"
)

// TestSingleCoreSeedDeterminism: the same Config.Seed must produce the
// identical Result, bit for bit, across independent System instances —
// the property the harness's derived-seed rule rests on.
func TestSingleCoreSeedDeterminism(t *testing.T) {
	prof, err := workload.ProfileByName("leela")
	if err != nil {
		t.Fatal(err)
	}
	run := func() Result {
		s, err := NewSystem(Config{Mode: PTGuard, Seed: 12345}, prof)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(3000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.IPC != b.IPC || a.LLCMPKI != b.LLCMPKI ||
		a.PageWalks != b.PageWalks || a.TLBMissRate != b.TLBMissRate {
		t.Errorf("same seed produced different results:\n%+v\n%+v", a, b)
	}
}

// TestMulticoreSeedDeterminism: same property for the shared-device
// 4-core system.
func TestMulticoreSeedDeterminism(t *testing.T) {
	prof, err := workload.ProfileByName("povray")
	if err != nil {
		t.Fatal(err)
	}
	profs := []workload.Profile{prof, prof, prof, prof}
	run := func() []Result {
		ms, err := NewMultiSystem(Config{Mode: PTGuard, Seed: 777}, profs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ms.Run(1500)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Cycles != b[i].Cycles || a[i].LLCMPKI != b[i].LLCMPKI {
			t.Errorf("core %d: same seed produced different results:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestSlowdownPercent(t *testing.T) {
	got, err := SlowdownPercent(110, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got < 9.999 || got > 10.001 {
		t.Errorf("SlowdownPercent(110, 100) = %g, want 10", got)
	}
	for _, base := range []float64{0, -5} {
		if _, err := SlowdownPercent(100, base); err == nil {
			t.Errorf("baseline %g accepted", base)
		} else if !strings.Contains(err.Error(), "baseline") {
			t.Errorf("baseline %g: undescriptive error %v", base, err)
		}
	}
	if _, err := SlowdownPercent(-1, 100); err == nil {
		t.Error("negative run cycles accepted")
	}
}
