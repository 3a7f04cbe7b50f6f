package harness

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestFingerprintBackendInvariant pins the property the distributed
// backend depends on: the journal fingerprint is a function of (kind,
// seed, spec) only, so nothing about how the campaign executes — worker
// count, backend, timeouts — can invalidate a journal.
func TestFingerprintBackendInvariant(t *testing.T) {
	spec := CorrectionSpec{Lines: 40, Probs: []float64{0.5, 0.25}}
	base := Fingerprint("soak", 42, spec)

	// Identical inputs, identical fingerprint — regardless of any
	// execution configuration, which simply isn't an input.
	if got := Fingerprint("soak", 42, CorrectionSpec{Lines: 40, Probs: []float64{0.5, 0.25}}); got != base {
		t.Errorf("same campaign, different fingerprint: %q vs %q", got, base)
	}

	// Kind, seed, and spec each perturb it.
	if got := Fingerprint("sweep", 42, spec); got == base {
		t.Error("kind change did not change the fingerprint")
	}
	if got := Fingerprint("soak", 43, spec); got == base {
		t.Error("seed change did not change the fingerprint")
	}
	if got := Fingerprint("soak", 42, CorrectionSpec{Lines: 41, Probs: []float64{0.5, 0.25}}); got == base {
		t.Error("spec change did not change the fingerprint")
	}

	// The rendered form carries the kind, seed and results version in the
	// clear (journal headers are read by humans mid-incident).
	if !strings.HasPrefix(base, "soak seed=42 results=v1 spec=") {
		t.Errorf("fingerprint format drifted: %q", base)
	}
}

// TestFingerprintGolden pins the exact rendering: a drift here
// invalidates every journal on disk, which must be a deliberate act.
func TestFingerprintGolden(t *testing.T) {
	got := Fingerprint("gold", 7, struct {
		A int    `json:"a"`
		B string `json:"b"`
	}{1, "x"})
	const want = "gold seed=7 results=v1 spec=ecf9e98ec0641e23113ff3ce"
	if got != want {
		t.Errorf("Fingerprint = %q, want %q", got, want)
	}
}

func TestJobsPerSecEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		m    Metrics
		want float64
	}{
		{"normal", Metrics{Executed: 10, Elapsed: 2 * time.Second}, 5},
		{"zero executed", Metrics{Executed: 0, Elapsed: time.Second}, 0},
		{"zero elapsed", Metrics{Executed: 10, Elapsed: 0}, 0},
		{"negative elapsed", Metrics{Executed: 10, Elapsed: -time.Second}, 0},
		// The replay case: every job came from the journal, nothing
		// executed, near-zero elapsed — the old code divided ~0 by ~0.
		{"all replayed", Metrics{Executed: 0, FromJournal: 100, Elapsed: time.Microsecond}, 0},
	}
	for _, c := range cases {
		got := c.m.JobsPerSec()
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("%s: JobsPerSec = %v (non-finite)", c.name, got)
			continue
		}
		if got != c.want {
			t.Errorf("%s: JobsPerSec = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestEtaString(t *testing.T) {
	cases := []struct {
		name      string
		remaining int64
		rate      float64
		want      string
	}{
		{"done", 0, 5, "0s"},
		{"overshot", -3, 5, "0s"},
		{"zero rate", 10, 0, "?"},
		{"negative rate", 10, -1, "?"},
		{"nan rate", 10, math.NaN(), "?"},
		// A vanishing rate used to overflow the float64->Duration
		// conversion into a negative ETA.
		{"vanishing rate", 1 << 40, 1e-18, "?"},
		{"normal", 10, 5, "2s"},
		{"subsecond", 1, 8, "0s"},
	}
	for _, c := range cases {
		if got := etaString(c.remaining, c.rate); got != c.want {
			t.Errorf("%s: etaString(%d, %v) = %q, want %q", c.name, c.remaining, c.rate, got, c.want)
		}
	}
}
