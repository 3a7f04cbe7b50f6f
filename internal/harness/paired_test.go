package harness

import (
	"context"
	"reflect"
	"testing"

	"ptguard/internal/attack"
	"ptguard/internal/sim"
)

// The paper's comparisons as properties over paired runs. The slowdown,
// ablation and correction sections run every job on the campaign seed, so
// the rows of one table see the same inputs and differ only by their
// configuration. Each property below held at seeds 1-8; the tests check
// three of them at about 60 lines.
var pairedSeeds = []uint64{1, 2, 3}

const pairedLines = 60

// runCampaign runs a spec's jobs in-process and returns the results in
// job order.
func runCampaign[S Campaign[R], R any](t *testing.T, spec S, seed uint64) []R {
	t.Helper()
	jobs, err := spec.Jobs(seed)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	results, err := rep.Results()
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// TestAblationPairedClaims checks the §VI-D and §VI-C/E ablations:
//   - disabling flip-and-check, the flag majority vote or PFN contiguity
//     never raises corrected-%, because each switch only removes guesses
//     and the search stops at the first match;
//   - corrected-% never falls as k grows, because a larger k accepts a
//     superset at every guess;
//   - the full row, the k=4 row, the 96-bit row and the Fig. 9 point at
//     the same p_flip are one experiment, so their results are equal.
//
// Both orderings need zero miscorrections: a wrong match that stops the
// search early could hide a later right one. Two rows are not asserted.
// Disabling the zero-PTE reset also changes steps 4-5, which build on its
// zeroed view, so it is not a pure removal. The MAC width changes which
// wrong guesses collide and read 82 / 82 / 81% for 64 / 80 / 96 bits at
// seed 7 and 100 lines, so corrected-% is not width-independent at this
// sample size.
func TestAblationPairedClaims(t *testing.T) {
	spec := AblationSpec{Lines: pairedLines}
	for _, seed := range pairedSeeds {
		results := runCampaign(t, spec, seed)
		var full, k4, w96 *attack.CorrectionResult
		strategy := map[string]attack.CorrectionResult{}
		var byK []AblationResult
		for i, r := range results {
			if r.Correction.Miscorrected != 0 {
				t.Fatalf("seed %d: %s %s miscorrected %d lines", seed, r.Kind, r.Label, r.Correction.Miscorrected)
			}
			switch {
			case r.Kind == AblationStrategy && r.Label == strategyAblations[0].name:
				full = &results[i].Correction
			case r.Kind == AblationStrategy:
				strategy[r.Label] = r.Correction
			case r.Kind == AblationSoftK:
				byK = append(byK, r)
				if r.SoftK == 4 {
					k4 = &results[i].Correction
				}
			case r.Kind == AblationWidth && r.TagBits == 96:
				w96 = &results[i].Correction
			}
		}
		if full == nil || k4 == nil || w96 == nil {
			t.Fatalf("seed %d: ablation rows missing: full %v, k=4 %v, 96-bit %v", seed, full != nil, k4 != nil, w96 != nil)
		}
		for _, label := range []string{"without flip-and-check", "without flag majority vote", "without PFN contiguity"} {
			r, ok := strategy[label]
			if !ok {
				t.Fatalf("seed %d: no %q row", seed, label)
			}
			if r.CorrectedPct() > full.CorrectedPct() {
				t.Errorf("seed %d: %s corrected %.2f%%, above the full algorithm's %.2f%%",
					seed, label, r.CorrectedPct(), full.CorrectedPct())
			}
		}
		for i := 1; i < len(byK); i++ {
			lo, hi := byK[i-1], byK[i]
			if hi.Correction.CorrectedPct() < lo.Correction.CorrectedPct() {
				t.Errorf("seed %d: corrected %.2f%% at k=%d, below %.2f%% at k=%d",
					seed, hi.Correction.CorrectedPct(), hi.SoftK, lo.Correction.CorrectedPct(), lo.SoftK)
			}
		}
		fig9 := runCampaign(t, CorrectionSpec{Lines: pairedLines, Probs: []float64{spec.withDefaults().FlipProb}}, seed)
		for _, same := range []struct {
			label string
			res   attack.CorrectionResult
		}{
			{"k=4", *k4},
			{"96-bit", *w96},
			{"Fig. 9 at p=1/128", fig9[0].Result},
		} {
			if !reflect.DeepEqual(same.res, *full) {
				t.Errorf("seed %d: %s = %+v, want the full row %+v", seed, same.label, same.res, *full)
			}
		}
	}
}

// TestSlowdownBaselinePairedAcrossLatencies checks that MAC latency
// changes only the protected runs: each workload's baseline run is
// identical at every latency of one sweep, so Fig. 7's slowdowns share
// one denominator.
func TestSlowdownBaselinePairedAcrossLatencies(t *testing.T) {
	spec := smallSlowdown
	spec.MACLatencies = []int{5, 20}
	for _, seed := range pairedSeeds {
		base := map[string]sim.Result{}
		for _, r := range runCampaign(t, spec, seed) {
			got := r.Comparison.Results[sim.Baseline]
			want, ok := base[r.Comparison.Workload]
			if !ok {
				base[r.Comparison.Workload] = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d: %s baseline at MAC latency %d differs from the first latency's:\n got %+v\nwant %+v",
					seed, r.Comparison.Workload, r.MACLatency, got, want)
			}
		}
		if len(base) != len(spec.Workloads) {
			t.Errorf("seed %d: %d workloads seen, want %d", seed, len(base), len(spec.Workloads))
		}
	}
}
