package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	// fig7-proc's workers and the reference kernel re-execute the running
	// binary.
	if os.Getenv(workerEnv) != "" {
		os.Exit(serveWorker())
	}
	if os.Getenv(probeEnv) != "" {
		os.Exit(serveProbe())
	}
	os.Exit(m.Run())
}

func TestQuantileRefusesP90BelowHundredSamples(t *testing.T) {
	for _, n := range []int{1, 10, 99, 100, 250} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		p90, ok := quantile(xs, 0.9)
		if ok != (n >= 100) {
			t.Errorf("n=%d: p90 allowed=%t, want %t", n, ok, n >= 100)
		}
		if want := math.Ceil(0.9 * float64(n)); p90 != want {
			t.Errorf("n=%d: p90=%g, want %g", n, p90, want)
		}
		if _, ok := quantile(xs, 0.5); !ok {
			t.Errorf("n=%d: median refused", n)
		}
	}
}

func TestFoldTraces(t *testing.T) {
	raw, err := os.ReadFile("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := foldTraces(string(raw))
	want := map[string]float64{
		"qarma.sliced":   30,
		"qarma.scalar":   20,
		"ostable":        10, // a map walk counts toward its caller
		"runtime.gc":     10,
		"runtime.malloc": 10, // memclr under mallocgc is the allocator's
		"harness":        10, // an unlisted package (chaos) defers to its caller
		"other":          10,
	}
	sum := 0.0
	for _, l := range busyLayers {
		sum += got[l]
		if math.Abs(got[l]-want[l]) > 1e-9 {
			t.Errorf("%s: %g%%, want %g%%", l, got[l], want[l])
		}
	}
	if len(got) != len(busyLayers) || math.Abs(sum-100) > 1e-9 {
		t.Errorf("%d layers summing to %g%%, want %d summing to 100%%", len(got), sum, len(busyLayers))
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "round", Parent: -1, Start: 0, End: 100},
		{Name: "exec", Parent: 0, Start: 10, End: 30},
		{Name: "exec", Parent: 0, Start: 20, End: 50},  // overlaps the first
		{Name: "exec", Parent: 0, Start: 90, End: 120}, // runs past its parent
	}
	dur, self := spanTotals(spans)
	if self["round"] != 50 || dur["exec"] != 80 || self["exec"] != 80 {
		t.Errorf("round self %d, exec dur %d self %d; want 50, 80, 80", self["round"], dur["exec"], self["exec"])
	}
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func names(r *report) []string {
	var out []string
	for name := range r.Metrics {
		out = append(out, name)
	}
	return out
}

func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Errorf("%s: got %d names %v, want %d %v", what, len(got), got, len(want), want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: got %v, want %v", what, got, want)
			return
		}
	}
}

func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	e2e, layers := declared(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, name := range append(append([]string(nil), e2e...), layers...) {
		if !valid.MatchString(name) {
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", name)
		}
	}

	ph := phase{wall: time.Second, cpu: time.Second, alloc: 1 << 20}
	for i := 0; i < 100; i++ {
		ph.samples = append(ph.samples, sample{elapsed: time.Duration(i+1) * time.Millisecond})
	}
	r := &report{Metrics: map[string]metric{}}
	endToEnd(r, time.Second, ph, 1024)
	sameSet(t, "end-to-end", names(r), e2e)

	r = &report{Metrics: map[string]metric{}}
	layerMetrics(r, newTracer(""), foldTraces(""), ph, ph)
	sameSet(t, "per-layer", names(r), layers)
}

// exactLayerMetrics are the per-layer metrics computed from simulated
// results alone, which must repeat exactly for one seed.
var exactLayerMetrics = []string{
	"core.read_macs_per_kinstr", "core.write_macs_per_kinstr", "core.chunk_encrypts_per_mac",
	"core.zero_fastpath_ratio", "core.identifier_skip_ratio", "cache.l1d.hit_rate",
	"cache.l2.hit_rate", "cache.llc_mpki", "tlb.miss_rate", "sim.page_walks_per_kinstr",
	"walker.mem_accesses_per_walk", "dram.row_hit_rate", "memctrl.accesses_per_kinstr",
	"memctrl.read_mac_cycles_per_kinstr", "sim.slowdown_pct", "attack.guesses_per_trial",
	"attack.guesses_per_correction", "attack.detected_pct", "attack.corrected_pct",
}

// TestSmokeAllWorkloads runs every workload at a tiny size: two traced runs
// at one seed must agree exactly on the digest and the simulated counts, and
// an untraced run at another seed must give another digest.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, layers := declared(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			cfg := config{workload: name, seed: 1, scale: 0.01, out: t.TempDir(), setups: 1}
			a := mustRun(t, cfg, true)
			b := mustRun(t, cfg, true)
			cfg.seed = 2
			c := mustRun(t, cfg, false)

			sameSet(t, "per-layer", names(a), layers)
			if a.digest != b.digest {
				t.Errorf("seed 1 digests differ: %s vs %s", a.digest, b.digest)
			}
			if c.digest == a.digest {
				t.Errorf("seeds 1 and 2 give the same digest %s", a.digest)
			}
			for _, m := range exactLayerMetrics {
				if a.Metrics[m] != b.Metrics[m] {
					t.Errorf("%s differs between runs at one seed: %v vs %v", m, a.Metrics[m], b.Metrics[m])
				}
			}
			// One cycle of jobs is too few for job_p90_ms; every other
			// end-to-end metric is reported.
			for _, m := range e2e {
				if _, ok := c.Metrics[m]; !ok && m != "job_p90_ms" {
					t.Errorf("end-to-end metric %s missing", m)
				}
			}
		})
	}
}

func mustRun(t *testing.T, cfg config, traced bool) *report {
	t.Helper()
	r, err := run(cfg, traced, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("run not correct: attempted %d, failed %d", r.Attempted, r.Failed)
	}
	return r
}
