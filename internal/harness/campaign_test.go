package harness

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"ptguard/internal/attack"
	"ptguard/internal/sim"
)

// smallSlowdown is a fast Fig. 6-shaped campaign over the three smallest
// footprints.
var smallSlowdown = SlowdownSpec{
	Workloads:    []string{"exchange2", "povray", "leela"},
	Warmup:       500,
	Instructions: 1500,
}

func renderSlowdown(t *testing.T, rep *Report[SlowdownResult]) []byte {
	t.Helper()
	results, err := rep.Results()
	if err != nil {
		t.Fatal(err)
	}
	out, err := smallSlowdown.Report(results)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, tbl := range out.Tables {
		if err := tbl.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestCampaignWorkerCountDeterminism is the headline determinism
// regression: the same campaign seed must produce byte-identical
// aggregated reports with 1 worker and with 8, because per-job seeds are
// derived from (campaign seed, job key) and results aggregate in job
// order.
func TestCampaignWorkerCountDeterminism(t *testing.T) {
	run := func(workers int) (*Report[SlowdownResult], []byte) {
		jobs, err := smallSlowdown.Jobs(42)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(context.Background(), jobs, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return rep, renderSlowdown(t, rep)
	}
	repSerial, tableSerial := run(1)
	repParallel, tableParallel := run(8)

	serialResults, _ := repSerial.Results()
	parallelResults, _ := repParallel.Results()
	if !reflect.DeepEqual(serialResults, parallelResults) {
		t.Error("1-worker and 8-worker campaign results differ")
	}
	if !bytes.Equal(tableSerial, tableParallel) {
		t.Errorf("rendered reports differ:\n--- serial ---\n%s\n--- parallel ---\n%s",
			tableSerial, tableParallel)
	}
}

// TestCampaignJournalRoundTripDeterminism checks that results restored
// from the JSONL journal render the byte-identical report: the checkpoint
// must be lossless.
func TestCampaignJournalRoundTripDeterminism(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	jobs, err := smallSlowdown.Jobs(42)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Workers: 4, JournalPath: journal}
	rep1, err := Run(context.Background(), jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	jobs2, _ := smallSlowdown.Jobs(42)
	rep2, err := Run(context.Background(), jobs2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Metrics.FromJournal != len(jobs2) || rep2.Metrics.Executed != 0 {
		t.Fatalf("resume metrics = %+v, want all from journal", rep2.Metrics)
	}
	if a, b := renderSlowdown(t, rep1), renderSlowdown(t, rep2); !bytes.Equal(a, b) {
		t.Errorf("journaled report differs from live report:\n--- live ---\n%s\n--- journal ---\n%s", a, b)
	}
}

func TestSlowdownSpecRejectsUnknownWorkload(t *testing.T) {
	if _, err := (SlowdownSpec{Workloads: []string{"nonesuch"}}).Jobs(1); err == nil {
		t.Error("unknown workload accepted")
	}
}

// The sim reads a zero MAC latency as its 10-cycle default and a negative
// one as a MAC faster than free, so both must fail before any job runs.
func TestSlowdownSpecRejectsNonPositiveMACLatency(t *testing.T) {
	for _, lats := range [][]int{{0}, {-5}, {10, 0}} {
		if _, err := (SlowdownSpec{Workloads: []string{"leela"}, MACLatencies: lats}).Jobs(1); err == nil {
			t.Errorf("MAC latencies %v accepted", lats)
		}
	}
}

// A negative warm-up used to be skipped without a word and a negative
// measured window failed only once its job ran; both must fail before any
// job is dispatched, in both single-core and multicore specs.
func TestSpecsRejectNegativeRunLength(t *testing.T) {
	for _, c := range []struct{ warmup, instructions int }{{-5, 0}, {0, -5}, {-1, -1}} {
		if _, err := (SlowdownSpec{Workloads: []string{"leela"}, Warmup: c.warmup, Instructions: c.instructions}).Jobs(1); err == nil {
			t.Errorf("slowdown spec with warm-up %d, instructions %d accepted", c.warmup, c.instructions)
		}
		if _, err := (MulticoreSpec{SameMixes: 1, Warmup: c.warmup, Instructions: c.instructions}).Jobs(1); err == nil {
			t.Errorf("multicore spec with warm-up %d, instructions %d accepted", c.warmup, c.instructions)
		}
	}
}

func TestMulticoreSpecJobsAndMixes(t *testing.T) {
	spec := MulticoreSpec{SameMixes: 2, MixMixes: 3}
	mixesA := spec.Mixes(7)
	mixesB := spec.Mixes(7)
	if !reflect.DeepEqual(mixesA, mixesB) {
		t.Error("mix expansion not deterministic")
	}
	if len(mixesA) != 5 {
		t.Fatalf("got %d mixes, want 5", len(mixesA))
	}
	jobs, err := spec.Jobs(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 5 {
		t.Fatalf("got %d jobs, want 5", len(jobs))
	}
}

func TestAblationTablesAggregation(t *testing.T) {
	spec := AblationSpec{}
	jobs, err := spec.Jobs(9)
	if err != nil {
		t.Fatal(err)
	}
	// 5 strategies + 5 soft-k points + 3 widths.
	if len(jobs) != 13 {
		t.Fatalf("got %d ablation jobs, want 13", len(jobs))
	}
	// Aggregate fabricated results (no sims) to check table shape.
	var results []AblationResult
	fake := attack.CorrectionResult{Erroneous: 10, Corrected: 9, Detected: 1}
	for _, label := range []string{"full §VI-D algorithm", "without flip-and-check"} {
		results = append(results, AblationResult{Kind: AblationStrategy, Label: label, Correction: fake})
	}
	results = append(results,
		AblationResult{Kind: AblationSoftK, Label: "k=4", SoftK: 4, Correction: fake},
		AblationResult{Kind: AblationWidth, Label: "96-bit", TagBits: 96, Correction: fake})
	out, err := spec.Report(results)
	if err != nil {
		t.Fatal(err)
	}
	tables := out.Tables
	if len(tables) != 3 {
		t.Fatalf("got %d tables, want 3", len(tables))
	}
	if len(tables[0].Rows) != 2 || len(tables[1].Rows) != 1 || len(tables[2].Rows) != 1 {
		t.Errorf("row split = %d/%d/%d, want 2/1/1",
			len(tables[0].Rows), len(tables[1].Rows), len(tables[2].Rows))
	}
	if _, err := spec.Report([]AblationResult{{Kind: "mystery"}}); err == nil {
		t.Error("unknown ablation kind accepted")
	}
}

func TestCorrectionSpecDefaultsToFig9Probs(t *testing.T) {
	jobs, err := CorrectionSpec{}.Jobs(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(attack.Fig9FlipProbs) {
		t.Fatalf("got %d jobs, want %d", len(jobs), len(attack.Fig9FlipProbs))
	}
	out, err := CorrectionSpec{}.Report([]CorrectionPoint{
		{FlipProb: 1.0 / 512, Result: attack.CorrectionResult{Erroneous: 5, Corrected: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := out.Tables[0].Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig. 9", "corrected %", "100.00%", "guesses"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("correction table missing %q:\n%s", want, buf.String())
		}
	}
}

// A flip probability outside (0, 1) fails at expansion, before any job
// runs or any journal is written. NaN passes a `p <= 0 || p >= 1` check,
// and RunCorrection would then redraw its fault pattern forever.
func TestCorrectionSpecsRejectBadFlipProb(t *testing.T) {
	for _, p := range []float64{math.NaN(), -0.5, 1, 2} {
		if _, err := (AblationSpec{FlipProb: p}).Jobs(1); err == nil {
			t.Errorf("AblationSpec FlipProb %g accepted", p)
		}
		if _, err := (CorrectionSpec{Probs: []float64{1.0 / 128, p}}).Jobs(1); err == nil {
			t.Errorf("CorrectionSpec Probs {1/128, %g} accepted", p)
		}
	}
}

func TestMulticoreTableSummaryRows(t *testing.T) {
	rendered, err := MulticoreSpec{}.Report([]sim.MulticoreResult{
		{Mix: "a-SAME", SlowdownPct: 1.5},
		{Mix: "MIX-01", SlowdownPct: 3.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rendered.Tables[0].Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"AVERAGE", "2.50%", "WORST (MIX-01)", "3.50%"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("multicore table missing %q:\n%s", want, out)
		}
	}
	if _, err := (MulticoreSpec{}).Report(nil); err == nil {
		t.Error("empty result set accepted")
	}
}
