package attack

import (
	"runtime"
	"testing"
)

// withGOMAXPROCS runs f at the given parallelism and restores the old value.
func withGOMAXPROCS(n int, f func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	f()
}

// TestRunCorrectionShardDeterminism: the Fig. 9 trial loop is sharded
// across GOMAXPROCS goroutines; the same config must give bit-identical
// results serial vs parallel (each trial's RNG is derived from its index,
// never from a shared stream).
func TestRunCorrectionShardDeterminism(t *testing.T) {
	cfg := CorrectionConfig{FlipProb: 1.0 / 256, Lines: 150, Seed: 31}
	var serial, parallel CorrectionResult
	var serr, perr error
	withGOMAXPROCS(1, func() { serial, serr = RunCorrection(cfg) })
	withGOMAXPROCS(8, func() { parallel, perr = RunCorrection(cfg) })
	if serr != nil {
		t.Fatal(serr)
	}
	if perr != nil {
		t.Fatal(perr)
	}
	if serial != parallel {
		t.Errorf("serial vs GOMAXPROCS=8 diverged:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// TestTraceCorrectionShardDeterminism: RunTraceCorrection shards its
// fault-injection trials across GOMAXPROCS goroutines; the result must be
// bit-identical serial vs parallel, because each trial derives its own RNG
// from the trial index (stats.ShardTrials contract).
func TestTraceCorrectionShardDeterminism(t *testing.T) {
	cfg := TraceCorrectionConfig{
		Workload:     "leela",
		Instructions: 4000,
		FlipProb:     1.0 / 256,
		Trials:       120,
		Seed:         9,
	}
	old := runtime.GOMAXPROCS(1)
	serial, err := RunTraceCorrection(cfg)
	runtime.GOMAXPROCS(8)
	parallel, perr := RunTraceCorrection(cfg)
	runtime.GOMAXPROCS(old)
	if err != nil {
		t.Fatal(err)
	}
	if perr != nil {
		t.Fatal(perr)
	}
	if serial != parallel {
		t.Errorf("serial vs GOMAXPROCS=8 diverged:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// TestRunCoverageShardDeterminism: same property for the defense-coverage
// comparison, whose shard workers each rebuild their own world from the
// seed.
func TestRunCoverageShardDeterminism(t *testing.T) {
	var serial, parallel CoverageResult
	var serr, perr error
	withGOMAXPROCS(1, func() { serial, serr = RunCoverage(77, 200, 6) })
	withGOMAXPROCS(8, func() { parallel, perr = RunCoverage(77, 200, 6) })
	if serr != nil {
		t.Fatal(serr)
	}
	if perr != nil {
		t.Fatal(perr)
	}
	if serial != parallel {
		t.Errorf("serial vs GOMAXPROCS=8 diverged:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}
