package harness

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// smallMitigateSpec keeps trials cheap: low activation counts still cross
// the scaled flip threshold many times.
func smallMitigateSpec() MitigateSpec {
	return MitigateSpec{
		Mitigations: []string{"none", "trr", "graphene"},
		Patterns:    []string{"classic", "many-sided"},
		Trials:      1,
		Acts:        4096,
	}
}

func TestMitigateSpecValidation(t *testing.T) {
	bad := smallMitigateSpec()
	bad.Mitigations = []string{"bogus"}
	if _, err := bad.Jobs(1); err == nil {
		t.Error("unknown mitigation accepted")
	}
	bad = smallMitigateSpec()
	bad.Patterns = []string{"bogus"}
	if _, err := bad.Jobs(1); err == nil {
		t.Error("unknown pattern accepted")
	}
	bad = smallMitigateSpec()
	bad.Guard = []string{"maybe"}
	if _, err := bad.Jobs(1); err == nil {
		t.Error("unknown guard mode accepted")
	}
}

func TestMitigateCampaignDeterministicAcrossWorkers(t *testing.T) {
	spec := smallMitigateSpec()
	run := func(workers int) []string {
		jobs, err := spec.Jobs(99)
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
		out, err := spec.Report(results)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := out.Tables[0].RenderCSV(&sb); err != nil {
			t.Fatal(err)
		}
		return strings.Split(sb.String(), "\n")
	}
	serial := run(1)
	parallel := run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("matrix diverged across worker counts:\n1 worker:  %v\n4 workers: %v", serial, parallel)
	}
}

// TestMitigateMatrixSemantics pins the campaign-level story on one small
// matrix: unmitigated classic hammering corrupts PTEs silently when
// unprotected and is detected when protected; the TRR sampler stops
// classic but loses to many-sided.
func TestMitigateMatrixSemantics(t *testing.T) {
	spec := smallMitigateSpec()
	jobs, err := spec.Jobs(7)
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
	type cell struct{ flips, detected, silent int }
	matrix := make(map[string]cell)
	for _, r := range results {
		guard := GuardOff
		if r.Protected {
			guard = GuardOn
		}
		key := r.Mitigation + "/" + r.Pattern + "/" + guard
		c := matrix[key]
		c.flips += r.RowsFlipped
		c.detected += r.Detected
		c.silent += r.Silent
		matrix[key] = c
	}

	if c := matrix["none/classic/off"]; c.flips == 0 || c.silent == 0 {
		t.Errorf("unmitigated unprotected classic should corrupt silently: %+v", c)
	}
	if c := matrix["none/classic/on"]; c.detected == 0 || c.silent != 0 {
		t.Errorf("PT-Guard should detect unmitigated classic corruption: %+v", c)
	}
	if c := matrix["trr/classic/off"]; c.flips != 0 {
		t.Errorf("TRR should stop classic double-sided: %+v", c)
	}
	if c := matrix["trr/many-sided/off"]; c.flips == 0 {
		t.Errorf("many-sided should defeat the TRR sampler: %+v", c)
	}
}
