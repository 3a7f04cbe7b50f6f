package harness

import (
	"context"
	"strings"
	"testing"

	"ptguard/internal/attack"
)

func TestVirtSpecJobsExpansion(t *testing.T) {
	spec := VirtSpec{Tenants: []int{2, 4}, Trials: 2}
	jobs, err := spec.Jobs(7)
	if err != nil {
		t.Fatal(err)
	}
	// 2 tenant counts × 2 targets × 4 placements × 2 trials.
	if want := 2 * 2 * 4 * 2; len(jobs) != want {
		t.Fatalf("expanded %d jobs, want %d", len(jobs), want)
	}
	seen := make(map[string]bool)
	for _, j := range jobs {
		if seen[j.Key] {
			t.Fatalf("duplicate job key %q", j.Key)
		}
		seen[j.Key] = true
		if !strings.HasPrefix(j.Key, "vm/t") {
			t.Fatalf("job key %q lacks the vm/ prefix", j.Key)
		}
	}
}

func TestVirtSpecValidation(t *testing.T) {
	if _, err := (VirtSpec{Tenants: []int{1}}).Jobs(1); err == nil {
		t.Fatal("accepted a 1-tenant sweep")
	}
	if _, err := (VirtSpec{Placements: []string{"ept"}}).Jobs(1); err == nil {
		t.Fatal("accepted an unknown placement")
	}
	if _, err := (VirtSpec{Targets: []string{"hypervisor"}}).Jobs(1); err == nil {
		t.Fatal("accepted an unknown target")
	}
}

func TestVirtCampaignEndToEnd(t *testing.T) {
	spec := VirtSpec{
		Tenants:    []int{3},
		Placements: []string{"none", "both"},
		Trials:     1,
		PagesPerVM: 4,
		Acts:       4096,
	}
	jobs, err := spec.Jobs(11)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), jobs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	results, err := rep.Results()
	if err != nil {
		t.Fatal(err)
	}
	out, err := spec.Report(results)
	if err != nil {
		t.Fatal(err)
	}
	tables := out.Tables
	if len(tables) != 1 {
		t.Fatalf("got %d tables, want 1", len(tables))
	}
	// 1 tenant count × 2 targets × 2 placements.
	if got := len(tables[0].Rows); got != 4 {
		t.Fatalf("matrix has %d rows, want 4", got)
	}
	if !strings.Contains(tables[0].Title, "Inter-VM") {
		t.Fatalf("matrix title %q lacks Inter-VM", tables[0].Title)
	}
}

// TestVirtCampaignWorkerInvariance pins the acceptance criterion: the same
// seed produces identical results at any worker count.
func TestVirtCampaignWorkerInvariance(t *testing.T) {
	spec := VirtSpec{
		Tenants:    []int{2},
		Placements: []string{"guest"},
		Targets:    []string{attack.VMTargetGuest},
		Trials:     3,
		PagesPerVM: 4,
		Acts:       4096,
	}
	run := func(workers int) []attack.VMTrialResult {
		jobs, err := spec.Jobs(5)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(context.Background(), jobs, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		results, err := rep.Results()
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	a, b := run(1), run(4)
	if len(a) != len(b) {
		t.Fatalf("result counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs across worker counts:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}
