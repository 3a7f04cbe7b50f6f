// Package disttest provides the synthetic campaign kind the dist and
// harness tests and the campaign-throughput benchmarks drive workers with.
// Importing it registers the kind; the ptguard binary does not link it, so
// its workers do not serve it.
package disttest

import (
	"context"
	"fmt"
	"time"

	"ptguard/internal/harness"
	"ptguard/internal/stats"
)

func init() { harness.Register[SyntheticSpec, SyntheticResult]() }

// SyntheticSpec is a fixed-cost calibration campaign: each job sleeps
// CostMS and returns a seed-derived token. Because the per-job cost is
// wall-clock rather than CPU, campaign throughput scales with worker
// processes even on a single-core box — which is exactly what the
// BENCH_2 scaling benchmarks need to measure (coordinator dispatch and
// pipeline overlap) without conflating it with core count.
type SyntheticSpec struct {
	// Jobs is the number of jobs; 0 selects 16.
	JobCount int `json:"jobs"`
	// CostMS is the fixed wall-clock cost per job; 0 selects 10ms.
	CostMS int `json:"cost_ms"`
}

// Kind names the synthetic calibration campaign.
func (SyntheticSpec) Kind() string { return "synthetic" }

// SyntheticResult is one synthetic job's output; Token is a pure
// function of (campaign seed, job key), so cross-backend determinism
// tests can pin it.
type SyntheticResult struct {
	Index int    `json:"index"`
	Token uint64 `json:"token"`
}

// Jobs expands the synthetic campaign.
func (s SyntheticSpec) Jobs(campaignSeed uint64) ([]harness.Job[SyntheticResult], error) {
	n := s.JobCount
	if n <= 0 {
		n = 16
	}
	cost := time.Duration(s.CostMS) * time.Millisecond
	if cost <= 0 {
		cost = 10 * time.Millisecond
	}
	jobs := make([]harness.Job[SyntheticResult], 0, n)
	for i := 0; i < n; i++ {
		i := i
		key := fmt.Sprintf("synthetic/%04d", i)
		seed := stats.DeriveSeed(campaignSeed, key)
		jobs = append(jobs, harness.Job[SyntheticResult]{
			Key: key,
			Run: func(ctx context.Context) (SyntheticResult, error) {
				select {
				case <-time.After(cost):
				case <-ctx.Done():
					return SyntheticResult{}, ctx.Err()
				}
				rng := stats.NewRNG(seed)
				return SyntheticResult{Index: i, Token: rng.Uint64()}, nil
			},
		})
	}
	return jobs, nil
}

// Report renders nothing: the synthetic campaign exists to time backends,
// and its callers compare results directly.
func (SyntheticSpec) Report([]SyntheticResult) (*harness.Output, error) {
	return &harness.Output{}, nil
}
