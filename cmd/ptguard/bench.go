package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ptguard/internal/benchfmt"
)

// benchCmd converts `go test -bench -benchmem` output into a numbered
// BENCH_<n>.json baseline so the repo's performance trajectory is tracked
// run over run (`make bench-json`). It can also diff two baselines,
// judging a benchmark sampled several times (`go test -count N`) by its
// median:
//
//	go test -bench=. -benchmem -run='^$' | ptguard bench -out .
//	ptguard bench -compare BENCH_0.json,BENCH_1.json
func benchCmd(fs *flag.FlagSet) func() error {
	in := fs.String("in", "-", "benchmark output to parse ('-' for stdin)")
	out := fs.String("out", ".", "directory to write the next BENCH_<n>.json into")
	compare := fs.String("compare", "", "two BENCH_*.json files, comma-separated: print before->after table instead of ingesting")
	threshold := fs.Float64("threshold", 10, "with -compare: fail (exit non-zero) when any shared benchmark's ns/op, B/op or allocs/op rises, or a */sec throughput metric drops, by more than this percentage")

	return func() error {
		if *compare != "" {
			return runCompare(*compare, *threshold)
		}
		r := os.Stdin
		if *in != "-" {
			f, err := os.Open(*in)
			if err != nil {
				return err
			}
			defer f.Close()
			r = f
		}
		parsed, err := benchfmt.Parse(r)
		if err != nil {
			return err
		}
		path, err := nextPath(*out)
		if err != nil {
			return err
		}
		if err := writeFile(path, func(f *os.File) error { return parsed.Encode(f) }); err != nil {
			return err
		}
		fmt.Printf("%s: %d benchmarks\n", path, len(parsed.Results))
		return nil
	}
}

// nextPath returns dir/BENCH_<n>.json for the smallest n not yet taken.
func nextPath(dir string) (string, error) {
	for n := 0; ; n++ {
		path := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", n))
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return path, nil
		} else if err != nil {
			return "", err
		}
	}
}

func runCompare(spec string, thresholdPct float64) error {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		return fmt.Errorf("-compare wants before,after; got %q", spec)
	}
	files := make([]*benchfmt.File, 2)
	for i, p := range parts {
		f, err := os.Open(strings.TrimSpace(p))
		if err != nil {
			return err
		}
		parsed, err := benchfmt.Decode(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		files[i] = parsed
	}
	fmt.Print(benchfmt.Compare(files[0], files[1]))
	regs := benchfmt.Regressions(files[0], files[1], thresholdPct)
	if len(regs) == 0 {
		return nil
	}
	for _, r := range regs {
		// Pct is normalised so that bigger is always worse; spell out the
		// direction per unit family (costs rose, throughput fell).
		dir := "+"
		if strings.HasSuffix(r.Unit, "/sec") {
			dir = "-"
		}
		fmt.Fprintf(os.Stderr, "REGRESSION %s: %.4g -> %.4g %s (%s%.1f%%)\n", r.Name, r.Before, r.After, r.Unit, dir, r.Pct)
	}
	return fmt.Errorf("%d benchmark metric(s) regressed more than %g%%", len(regs), thresholdPct)
}
