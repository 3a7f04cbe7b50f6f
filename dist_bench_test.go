// Campaign-throughput benchmarks for the distributed execution backend
// (BENCH_2): the same fixed-cost campaign run in-process and sharded
// over 1, 2, 4, and 8 worker subprocesses (the re-executed test binary,
// via WorkerCommand). The jobs are
// wall-clock-bound (disttest.SyntheticSpec sleeps a fixed cost per job, it
// does not burn CPU), so campaign-jobs/sec measures what the backend
// actually adds — dispatch, framing, and pipeline overlap across
// processes — and scales with worker count even on a single-core
// machine. See EXPERIMENTS.md for the recorded scaling table.
package ptguard

import (
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"ptguard/internal/dist"
	"ptguard/internal/dist/disttest"
	"ptguard/internal/harness"
)

// TestMain doubles as the worker binary for the proc-backend benchmarks:
// the coordinator re-execs this test executable with
// PTGUARD_DIST_WORKER=1, which routes into dist.Serve instead of the
// test runner.
func TestMain(m *testing.M) {
	if os.Getenv("PTGUARD_DIST_WORKER") == "1" {
		if err := dist.Serve(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// BenchmarkCampaignThroughput runs a 24-job, 20ms-per-job synthetic
// campaign per iteration and reports end-to-end campaign-jobs/sec.
// local/workers=1 is the serial in-process reference; proc/workers=N
// shards the same campaign over N worker subprocesses. Coordinators are started outside
// the timed region — worker spawn cost is a per-campaign constant, not a
// per-job one, and BENCH_2 tracks steady-state dispatch throughput.
func BenchmarkCampaignThroughput(b *testing.B) {
	spec := disttest.SyntheticSpec{JobCount: 24, CostMS: 20}
	const seed = 42
	jobs, err := spec.Jobs(seed)
	if err != nil {
		b.Fatal(err)
	}

	run := func(b *testing.B, opts harness.Options) {
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			rep, err := harness.Run(context.Background(), jobs, opts)
			if err != nil {
				b.Fatal(err)
			}
			if rep.Metrics.Executed != len(jobs) {
				b.Fatalf("executed %d of %d jobs", rep.Metrics.Executed, len(jobs))
			}
		}
		elapsed := time.Since(start)
		b.ReportMetric(float64(len(jobs)*b.N)/elapsed.Seconds(), "campaign-jobs/sec")
	}

	// "workers=N" rather than "-N": benchfmt (like x/perf) strips a
	// trailing -N as the GOMAXPROCS suffix, which would collapse the
	// sub-benchmarks into one name.
	b.Run("local/workers=1", func(b *testing.B) {
		run(b, harness.Options{Workers: 1})
	})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("proc/workers=%d", workers), func(b *testing.B) {
			co, err := dist.Start(
				dist.Campaign{Kind: spec.Kind(), Spec: spec, Seed: seed},
				dist.Options{
					Workers:       workers,
					WorkerCommand: []string{os.Args[0]},
					WorkerEnv:     []string{"PTGUARD_DIST_WORKER=1"},
				})
			if err != nil {
				b.Fatal(err)
			}
			defer co.Close()
			run(b, harness.Options{Backend: "proc", Executor: co, Workers: co.Width()})
		})
	}
}
