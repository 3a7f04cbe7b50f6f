package harness_test

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"ptguard/internal/dist"
	"ptguard/internal/harness"
	"ptguard/internal/sim"
)

// The registry tests live in an external package so they can link
// internal/dist, which registers the synthetic kind: together the two
// packages register every kind a worker can be handed.

// TestKindsCoverAllCampaigns pins the registered kind names: they are part
// of the wire protocol and of journal fingerprints.
func TestKindsCoverAllCampaigns(t *testing.T) {
	want := []string{"ablation", "correction", "faults", "mitigate",
		"multicore", "slowdown", "synthetic", "virt"}
	if got := harness.Kinds(); !slices.Equal(got, want) {
		t.Fatalf("Kinds() = %v, want %v", got, want)
	}
}

// typedCampaign is one spec with its typed expansion: the job keys, and the
// JSON result of its first job.
type typedCampaign struct {
	spec  harness.Spec
	keys  []string
	first func(context.Context) ([]byte, error)
}

func typed[S harness.Campaign[R], R any](t *testing.T, spec S, seed uint64) typedCampaign {
	t.Helper()
	jobs, err := spec.Jobs(seed)
	if err != nil {
		t.Fatalf("%s: Jobs: %v", spec.Kind(), err)
	}
	tc := typedCampaign{spec: spec}
	for _, j := range jobs {
		tc.keys = append(tc.keys, j.Key)
	}
	tc.first = func(ctx context.Context) ([]byte, error) {
		v, err := jobs[0].Run(ctx)
		if err != nil {
			return nil, err
		}
		return json.Marshal(v)
	}
	return tc
}

// TestRegistryRoundTrip ships every registered kind across the worker
// boundary the way a coordinator does — its spec as JSON — and requires
// the worker-side expansion to be the typed one: the same keys in the same
// order, and the same result bytes for a job. A spec field that did not
// survive JSON (a pointer, a typed enum) would make a worker silently run
// a different campaign. The specs are small and set the fields that are
// easiest to lose.
func TestRegistryRoundTrip(t *testing.T) {
	const seed = 17
	obsSpec := &harness.ObsSpec{SnapshotEvery: 500, TraceCapacity: 64, IncludeTrace: true}
	cases := []typedCampaign{
		typed(t, harness.SlowdownSpec{
			Workloads: []string{"leela", "povray"}, Modes: []sim.Mode{sim.PTGuardOptimized},
			Warmup: 500, Instructions: 1000, MACLatencies: []int{10, 30}, Obs: obsSpec,
		}, seed),
		typed(t, harness.MulticoreSpec{
			SameMixes: 1, MixMixes: 1, Warmup: 500, Instructions: 1000, MACLatency: 20,
		}, seed),
		typed(t, harness.AblationSpec{Lines: 5, FlipProb: 1.0 / 64, SoftKs: []int{2}, Widths: []int{64}}, seed),
		typed(t, harness.CorrectionSpec{Lines: 5, Probs: []float64{1.0 / 100, 1.0 / 300}}, seed),
		typed(t, harness.FaultSpec{
			Models: []string{"burst:p=0.9,run=4", "1bit"}, Modes: []string{"correct"},
			Lines: 5, SoftMatchK: 3, TagBits: 64, Obs: obsSpec,
		}, seed),
		typed(t, harness.MitigateSpec{
			Mitigations: []string{"trr"}, Patterns: []string{"many-sided"}, Guard: []string{"on"},
			Trials: 2, Correction: true, Threshold: 48, Sampler: 20, TableSize: 8,
			Acts: 2048, WindowActs: -1, BudgetPerWindow: 2,
		}, seed),
		typed(t, harness.VirtSpec{
			Tenants: []int{3}, Placements: []string{"stage2"}, Targets: []string{"stage2"},
			Trials: 2, PagesPerVM: 4, Correction: true, Threshold: 48, Acts: 2048,
			FlipProb: 1.0 / 64, Obs: obsSpec,
		}, seed),
		typed(t, dist.SyntheticSpec{JobCount: 3, CostMS: 1}, seed),
	}
	var covered []string
	for _, tc := range cases {
		kind := tc.spec.Kind()
		covered = append(covered, kind)
		t.Run(kind, func(t *testing.T) {
			raw, err := json.Marshal(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			js, err := harness.Expand(kind, raw, seed)
			if err != nil {
				t.Fatalf("Expand: %v", err)
			}
			if !slices.Equal(js.Keys, tc.keys) {
				t.Fatalf("expanded keys %v, typed keys %v", js.Keys, tc.keys)
			}
			ctx := context.Background()
			got, err := js.Run(ctx, tc.keys[0])
			if err != nil {
				t.Fatalf("expanded job %s: %v", tc.keys[0], err)
			}
			want, err := tc.first(ctx)
			if err != nil {
				t.Fatalf("typed job %s: %v", tc.keys[0], err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("job %s: expanded result differs from typed:\nexpanded: %.300s\ntyped:    %.300s", tc.keys[0], got, want)
			}
		})
	}
	slices.Sort(covered)
	if kinds := harness.Kinds(); !slices.Equal(covered, kinds) {
		t.Errorf("round trip covers %v, registry has %v", covered, kinds)
	}
}

// TestPrepareRejectsUnregistered pins the typed entry point's failures: a
// spec of an unknown kind, a spec type that borrows a registered name,
// and a spec whose jobs repeat a key (a probability listed twice), which
// must fail here, before any job or journal, not later in Run.
func TestPrepareRejectsUnregistered(t *testing.T) {
	if _, err := harness.Prepare(fakeSpec("no-such-kind"), 1); err == nil {
		t.Error("Prepare accepted an unregistered kind")
	}
	if _, err := harness.Prepare(fakeSpec("correction"), 1); err == nil {
		t.Error("Prepare accepted a spec type that is not the registered correction spec")
	}
	dup := harness.CorrectionSpec{Lines: 5, Probs: []float64{1.0 / 512, 0.001953125}}
	if _, err := harness.Prepare(dup, 1); err == nil || !strings.Contains(err.Error(), "duplicate job key") {
		t.Errorf("Prepare(%+v) = %v, want a duplicate-job-key error", dup, err)
	}
	if _, err := harness.Expand("no-such-kind", []byte(`{}`), 1); err == nil {
		t.Error("Expand accepted an unregistered kind")
	}
}

type fakeSpec string

func (s fakeSpec) Kind() string { return string(s) }
