package benchfmt

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: ptguard
cpu: AMD EPYC 7B13
BenchmarkGuardWrite-8     	  120000	     10446 ns/op	     528 B/op	       5 allocs/op
BenchmarkFig9Correction-8 	       1	1370647085 ns/op	        95.80 corrected-%	       100.0 coverage-%	149413432 B/op	  585805 allocs/op
BenchmarkNoSuffix 	     100	     12345 ns/op
PASS
ok  	ptguard	12.345s
`

func TestParse(t *testing.T) {
	f, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if f.GOOS != "linux" || f.GOARCH != "amd64" || f.Pkg != "ptguard" || f.CPU != "AMD EPYC 7B13" {
		t.Errorf("bad header: %+v", f)
	}
	if len(f.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(f.Results))
	}
	gw, ok := f.Lookup("BenchmarkGuardWrite")
	if !ok {
		t.Fatal("BenchmarkGuardWrite missing")
	}
	if gw.Procs != 8 || gw.Iterations != 120000 {
		t.Errorf("GuardWrite header: %+v", gw)
	}
	if gw.Metrics["ns/op"] != 10446 || gw.Metrics["allocs/op"] != 5 || gw.Metrics["B/op"] != 528 {
		t.Errorf("GuardWrite metrics: %+v", gw.Metrics)
	}
	fig9, ok := f.Lookup("BenchmarkFig9Correction")
	if !ok {
		t.Fatal("BenchmarkFig9Correction missing")
	}
	if fig9.Metrics["corrected-%"] != 95.80 || fig9.Metrics["coverage-%"] != 100 {
		t.Errorf("custom metrics not parsed: %+v", fig9.Metrics)
	}
	ns, ok := f.Lookup("BenchmarkNoSuffix")
	if !ok || ns.Procs != 1 {
		t.Errorf("suffix-less benchmark: %+v (ok=%v)", ns, ok)
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := Parse(strings.NewReader("PASS\nok \tptguard\t0.1s\n")); err == nil {
		t.Error("no-benchmark input accepted")
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	f, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != len(f.Results) {
		t.Fatalf("roundtrip lost results: %d vs %d", len(back.Results), len(f.Results))
	}
	for i := range f.Results {
		a, b := f.Results[i], back.Results[i]
		if a.Name != b.Name || a.Procs != b.Procs || a.Iterations != b.Iterations {
			t.Errorf("result %d header changed: %+v vs %+v", i, a, b)
		}
		for u, v := range a.Metrics {
			if b.Metrics[u] != v {
				t.Errorf("result %d metric %s: %g vs %g", i, u, v, b.Metrics[u])
			}
		}
	}
}

func TestCompare(t *testing.T) {
	before, err := Parse(strings.NewReader(
		"BenchmarkX-8 10 1000 ns/op 4 allocs/op\nBenchmarkOnlyBefore-8 1 5 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	after, err := Parse(strings.NewReader(
		"BenchmarkX-8 10 250 ns/op 0 allocs/op\nBenchmarkOnlyAfter-8 1 7 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	out := Compare(before, after)
	if !strings.Contains(out, "0.25x") {
		t.Errorf("ns/op ratio missing from:\n%s", out)
	}
	if strings.Contains(out, "OnlyBefore") || strings.Contains(out, "OnlyAfter") {
		t.Errorf("unshared benchmarks leaked into:\n%s", out)
	}
}

func TestRegressions(t *testing.T) {
	before, err := Parse(strings.NewReader(
		"BenchmarkFast-8 10 1000 ns/op\n" +
			"BenchmarkSlow-8 10 1000 ns/op\n" +
			"BenchmarkEdge-8 10 1000 ns/op\n" +
			"BenchmarkGone-8 10 1000 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	after, err := Parse(strings.NewReader(
		"BenchmarkFast-8 10 500 ns/op\n" + // improved: never flagged
			"BenchmarkSlow-8 10 1250 ns/op\n" + // +25%
			"BenchmarkEdge-8 10 1100 ns/op\n" + // exactly +10%: not past the threshold
			"BenchmarkNew-8 10 9999 ns/op\n")) // unshared: skipped
	if err != nil {
		t.Fatal(err)
	}
	regs := Regressions(before, after, 10)
	if len(regs) != 1 || regs[0].Name != "BenchmarkSlow" {
		t.Fatalf("Regressions = %+v, want exactly BenchmarkSlow", regs)
	}
	if regs[0].Pct != 25 || regs[0].Before != 1000 || regs[0].After != 1250 {
		t.Errorf("regression detail = %+v", regs[0])
	}
	if regs := Regressions(before, after, 30); len(regs) != 0 {
		t.Errorf("30%% threshold still flags %+v", regs)
	}
	// A tighter threshold catches the edge case too.
	if regs := Regressions(before, after, 5); len(regs) != 2 {
		t.Errorf("5%% threshold flags %+v, want 2", regs)
	}
}

func TestRegressionsThroughputMetrics(t *testing.T) {
	// "/sec" metrics regress in the opposite direction from ns/op: a
	// DROP in throughput is the failure. This gates the distributed
	// campaign scaling benchmarks (campaign-jobs/sec).
	before, err := Parse(strings.NewReader(
		"BenchmarkCampaignThroughput/proc-4-8 5 1000 ns/op 40.0 campaign-jobs/sec\n" +
			"BenchmarkSteady-8 5 1000 ns/op 100 campaign-jobs/sec\n" +
			"BenchmarkOther-8 5 1000 ns/op 3.5 flips/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	after, err := Parse(strings.NewReader(
		"BenchmarkCampaignThroughput/proc-4-8 5 1000 ns/op 25.0 campaign-jobs/sec\n" + // -37.5%
			"BenchmarkSteady-8 5 1000 ns/op 150 campaign-jobs/sec\n" + // improved: never flagged
			"BenchmarkOther-8 5 1000 ns/op 1.0 flips/op\n")) // not a gated unit
	if err != nil {
		t.Fatal(err)
	}
	regs := Regressions(before, after, 10)
	if len(regs) != 1 {
		t.Fatalf("Regressions = %+v, want exactly the throughput drop", regs)
	}
	r := regs[0]
	if r.Name != "BenchmarkCampaignThroughput/proc-4" || r.Unit != "campaign-jobs/sec" {
		t.Errorf("regression identity = %+v", r)
	}
	if r.Before != 40 || r.After != 25 || r.Pct != 37.5 {
		t.Errorf("regression detail = %+v", r)
	}
	if regs := Regressions(before, after, 40); len(regs) != 0 {
		t.Errorf("40%% threshold still flags %+v", regs)
	}
}

func TestRegressionsMixedUnitsOneBenchmark(t *testing.T) {
	// One benchmark can regress on both families at once; each metric is
	// reported as its own regression with its unit attached.
	before, err := Parse(strings.NewReader("BenchmarkBoth-8 5 1000 ns/op 100 jobs/sec\n"))
	if err != nil {
		t.Fatal(err)
	}
	after, err := Parse(strings.NewReader("BenchmarkBoth-8 5 2000 ns/op 50 jobs/sec\n"))
	if err != nil {
		t.Fatal(err)
	}
	regs := Regressions(before, after, 10)
	if len(regs) != 2 {
		t.Fatalf("Regressions = %+v, want ns/op and jobs/sec", regs)
	}
	units := map[string]bool{}
	for _, r := range regs {
		units[r.Unit] = true
		if r.Name != "BenchmarkBoth" {
			t.Errorf("name = %q", r.Name)
		}
	}
	if !units["ns/op"] || !units["jobs/sec"] {
		t.Errorf("units flagged: %v", units)
	}
}

func TestRegressionsMemoryMetrics(t *testing.T) {
	// B/op and allocs/op are costs, like ns/op: a rise past the threshold
	// regresses, a fall never does, and a metric missing from either run
	// is not judged.
	before, err := Parse(strings.NewReader(
		"BenchmarkGrow-8 5 1000 ns/op 1000 B/op 10 allocs/op\n" +
			"BenchmarkShrink-8 5 1000 ns/op 1000 B/op 10 allocs/op\n" +
			"BenchmarkEdge-8 5 1000 ns/op 1000 B/op 10 allocs/op\n" +
			"BenchmarkNoMem-8 5 1000 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	after, err := Parse(strings.NewReader(
		"BenchmarkGrow-8 5 1000 ns/op 1200 B/op 15 allocs/op\n" + // +20%, +50%
			"BenchmarkShrink-8 5 1000 ns/op 300 B/op 1 allocs/op\n" + // improved: never flagged
			"BenchmarkEdge-8 5 1000 ns/op 1100 B/op 11 allocs/op\n" + // exactly +10%: not past it
			"BenchmarkNoMem-8 5 1000 ns/op 9999 B/op 99 allocs/op\n")) // no before value
	if err != nil {
		t.Fatal(err)
	}
	regs := Regressions(before, after, 10)
	if len(regs) != 2 {
		t.Fatalf("Regressions = %+v, want BenchmarkGrow's B/op and allocs/op", regs)
	}
	want := []Regression{
		{Name: "BenchmarkGrow", Unit: "B/op", Before: 1000, After: 1200, Pct: 20},
		{Name: "BenchmarkGrow", Unit: "allocs/op", Before: 10, After: 15, Pct: 50},
	}
	for i, r := range regs {
		if r != want[i] {
			t.Errorf("regression %d = %+v, want %+v", i, r, want[i])
		}
	}
	if regs := Regressions(before, after, 5); len(regs) != 4 {
		t.Errorf("5%% threshold flags %+v, want Grow and Edge on both metrics", regs)
	}
}

// TestRegressionsJudgeMedianOfRepeats: on `go test -count 5` output one
// outlying sample among five does not flag a benchmark, a shifted median
// does, and Compare prints each benchmark once, at its median.
func TestRegressionsJudgeMedianOfRepeats(t *testing.T) {
	samples := func(name string, nsPerOp ...int) string {
		var b strings.Builder
		for _, v := range nsPerOp {
			fmt.Fprintf(&b, "%s-8 10 %d ns/op\n", name, v)
		}
		return b.String()
	}
	before, err := Parse(strings.NewReader(
		samples("BenchmarkSteady", 1000, 1020, 980, 1010, 990) +
			samples("BenchmarkShifted", 100, 100, 100, 100, 100)))
	if err != nil {
		t.Fatal(err)
	}
	after, err := Parse(strings.NewReader(
		samples("BenchmarkSteady", 1000, 990, 4000, 1010, 1005) + // one outlier
			samples("BenchmarkShifted", 130, 128, 500, 131, 129)))
	if err != nil {
		t.Fatal(err)
	}
	regs := Regressions(before, after, 10)
	want := Regression{Name: "BenchmarkShifted", Unit: "ns/op", Before: 100, After: 130, Pct: 30}
	if len(regs) != 1 || regs[0] != want {
		t.Fatalf("Regressions = %+v, want only %+v", regs, want)
	}
	out := Compare(before, after)
	for _, name := range []string{"BenchmarkSteady", "BenchmarkShifted"} {
		if n := strings.Count(out, name+" "); n != 1 {
			t.Errorf("%s printed %d times in:\n%s", name, n, out)
		}
	}
	if !strings.Contains(out, "1000 ->           1005") {
		t.Errorf("BenchmarkSteady not shown at its medians in:\n%s", out)
	}
}
