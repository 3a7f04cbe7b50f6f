// Package benchfmt parses the text output of `go test -bench -benchmem`
// into a structured baseline so the performance trajectory of the repo can
// be tracked run over run (BENCH_<n>.json files written by
// `ptguard bench`, `make bench-json`).
//
// The format it understands is the standard benchmark result line,
//
//	BenchmarkFig9Correction-8   2   612345678 ns/op   95.8 corrected-% ...
//
// i.e. a name with an optional -GOMAXPROCS suffix, an iteration count, and
// then (value, unit) pairs: the built-in ns/op, B/op and allocs/op plus any
// custom b.ReportMetric units (corrected-%, slowdown-%, ...). The header
// lines go test prints (goos, goarch, pkg, cpu) become file metadata.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix (1 if the line had none).
	Procs int `json:"procs"`
	// Iterations is b.N for the reported run.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit -> value: "ns/op", "B/op", "allocs/op" and any
	// custom b.ReportMetric units.
	Metrics map[string]float64 `json:"metrics"`
}

// NsPerOp returns the ns/op metric (0 if absent).
func (r Result) NsPerOp() float64 { return r.Metrics["ns/op"] }

// AllocsPerOp returns the allocs/op metric (0 if absent).
func (r Result) AllocsPerOp() float64 { return r.Metrics["allocs/op"] }

// File is a full parsed benchmark run: the JSON document stored as
// BENCH_<n>.json.
type File struct {
	GOOS    string   `json:"goos,omitempty"`
	GOARCH  string   `json:"goarch,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

// Parse reads `go test -bench` output and returns the structured run.
// Non-benchmark lines (test chatter, PASS/ok trailers) are skipped; it is
// an error if no benchmark line is found at all.
func Parse(r io.Reader) (*File, error) {
	f := &File{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			f.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			f.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			// Multi-package runs repeat the header; keep the first.
			if f.Pkg == "" {
				f.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			}
		case strings.HasPrefix(line, "cpu:"):
			if f.CPU == "" {
				f.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			}
		case strings.HasPrefix(line, "Benchmark"):
			res, ok, err := parseLine(line)
			if err != nil {
				return nil, err
			}
			if ok {
				f.Results = append(f.Results, res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(f.Results) == 0 {
		return nil, errors.New("benchfmt: no benchmark result lines found")
	}
	return f, nil
}

// parseLine parses one "BenchmarkName-8  N  v unit  v unit ..." line.
// ok=false (no error) is returned for Benchmark-prefixed lines that are not
// result lines (e.g. a bare name echoed on -v runs).
func parseLine(line string) (Result, bool, error) {
	fields := strings.Fields(line)
	// name, iterations, and at least one (value, unit) pair.
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Result{}, false, nil
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false, nil
	}
	name, procs := splitProcs(fields[0])
	res := Result{
		Name:       name,
		Procs:      procs,
		Iterations: iters,
		Metrics:    make(map[string]float64, (len(fields)-2)/2),
	}
	for i := 2; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false, fmt.Errorf("benchfmt: bad value %q in %q: %w", fields[i], line, err)
		}
		res.Metrics[fields[i+1]] = v
	}
	return res, true, nil
}

// splitProcs splits "BenchmarkFoo-8" into ("BenchmarkFoo", 8); a name with
// no numeric -N suffix keeps its full form with Procs 1.
func splitProcs(s string) (string, int) {
	i := strings.LastIndexByte(s, '-')
	if i < 0 {
		return s, 1
	}
	n, err := strconv.Atoi(s[i+1:])
	if err != nil || n <= 0 {
		return s, 1
	}
	return s[:i], n
}

// Lookup returns the first result with the given (suffix-stripped) name.
func (f *File) Lookup(name string) (Result, bool) {
	for _, r := range f.Results {
		if r.Name == name {
			return r, true
		}
	}
	return Result{}, false
}

// Encode writes the file as indented, deterministic JSON (results in input
// order, metric keys sorted by encoding/json).
func (f *File) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// Decode reads a BENCH_<n>.json document.
func Decode(r io.Reader) (*File, error) {
	var f File
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, err
	}
	return &f, nil
}

// Regression is one benchmark metric that worsened past a threshold between
// two runs.
type Regression struct {
	// Name is the (suffix-stripped) benchmark name.
	Name string
	// Unit is the metric that regressed: "ns/op", "B/op", "allocs/op", or
	// a throughput unit ending in "/sec" (e.g. "campaign-jobs/sec").
	Unit string
	// Before and After are the metric's values in the two runs.
	Before, After float64
	// Pct is the regression size in percent of the before value: an
	// increase for ns/op, B/op and allocs/op, a decrease for "/sec"
	// metrics.
	Pct float64
}

// Regressions returns the benchmarks present in both runs with a metric
// that worsened by more than thresholdPct percent, in after-file order.
// Two metric families are gated, with opposite polarity: the cost metrics
// ns/op, B/op and allocs/op (lower is better — an increase regresses) and
// custom "/sec" throughput metrics such as the campaign-jobs/sec scaling
// benchmarks (higher is better — a decrease regresses). Benchmarks missing
// from either file, or metrics without a positive value in both, are
// skipped — the gate judges only what both baselines measured.
func Regressions(before, after *File, thresholdPct float64) []Regression {
	var out []Regression
	for _, ar := range after.Results {
		br, ok := before.Lookup(ar.Name)
		if !ok {
			continue
		}
		units := make([]string, 0, len(ar.Metrics))
		for u := range ar.Metrics {
			if u == "ns/op" || u == "B/op" || u == "allocs/op" || strings.HasSuffix(u, "/sec") {
				units = append(units, u)
			}
		}
		sort.Strings(units)
		for _, u := range units {
			bv, av := br.Metrics[u], ar.Metrics[u]
			if bv <= 0 || av <= 0 {
				continue
			}
			pct := 100 * (av - bv) / bv
			if strings.HasSuffix(u, "/sec") {
				pct = -pct // throughput: a drop is the regression
			}
			if pct > thresholdPct {
				out = append(out, Regression{Name: ar.Name, Unit: u, Before: bv, After: av, Pct: pct})
			}
		}
	}
	return out
}

// Compare renders a name-aligned comparison of shared metrics between two
// runs ("before" and "after"), one line per benchmark and metric, with the
// after/before ratio. Benchmarks present in only one file are skipped.
func Compare(before, after *File) string {
	var b strings.Builder
	for _, ar := range after.Results {
		br, ok := before.Lookup(ar.Name)
		if !ok {
			continue
		}
		units := make([]string, 0, len(ar.Metrics))
		for u := range ar.Metrics {
			if _, ok := br.Metrics[u]; ok {
				units = append(units, u)
			}
		}
		sort.Strings(units)
		for _, u := range units {
			bv, av := br.Metrics[u], ar.Metrics[u]
			ratio := "n/a"
			if bv != 0 {
				ratio = fmt.Sprintf("%.2fx", av/bv)
			}
			fmt.Fprintf(&b, "%-40s %-12s %14.4g -> %14.4g  (%s)\n", ar.Name, u, bv, av, ratio)
		}
	}
	return b.String()
}
