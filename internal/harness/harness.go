// Package harness is the experiment-campaign execution subsystem: it takes
// a declarative spec (workload × mode × seed × knobs grid), expands it into
// independent jobs, fans the jobs out over a worker pool, and aggregates
// the results deterministically — the N-worker output is byte-identical to
// the serial output because every job's seed is a pure function of the
// campaign seed and the job key, and results are collected in job order
// regardless of scheduling.
//
// The runner is robust by construction: a panicking job is recovered and
// retried (with exponential backoff and deterministic jitter) a bounded
// number of times, every job runs under a wall-clock timeout, a job that
// exhausts its attempts is quarantined as poison (reported, never wedging
// a worker), and finished jobs are checkpointed to a CRC-framed JSONL
// journal so an interrupted campaign resumes by skipping work already
// done. Every durability path carries a chaos fault-point hook
// (internal/chaos), so kills, torn writes, and disk faults are first-class
// test inputs — `ptguard soak` runs that proof continuously.
package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"ptguard/internal/chaos"
	"ptguard/internal/stats"
)

// Job is one independent unit of work. Key must be unique within a
// campaign and stable across runs: it names the job in the checkpoint
// journal and seeds its derived RNG, so changing a key invalidates its
// checkpoint.
type Job[R any] struct {
	// Key uniquely identifies the job within the campaign.
	Key string
	// Run executes the job. The context carries the per-job deadline; a
	// job that ignores it is abandoned (its goroutine keeps running until
	// it returns, but its result is discarded and the job counts as
	// failed).
	Run func(ctx context.Context) (R, error)
}

// BackendLocal is the default execution backend: the in-process worker
// pool. Any other Options.Backend value requires an Executor.
const BackendLocal = "local"

// Executor runs job attempts somewhere other than this process — the
// pluggable half of a non-local Options.Backend (internal/dist provides
// the multi-process and TCP coordinators). Execute runs the job named by
// key and returns its JSON-encoded result; the returned error is the
// job's own failure (it burns a retry exactly like a local failure).
// Infrastructure failures — a crashed worker process, a lost connection,
// a heartbeat timeout — are the executor's to absorb (respawn, requeue on
// another worker) and surface only once requeueing is exhausted.
type Executor interface {
	Execute(ctx context.Context, key string) (json.RawMessage, error)
}

// Options configures a campaign run.
type Options struct {
	// Workers is the worker-pool size; 0 selects GOMAXPROCS. With a
	// non-local Backend it bounds in-flight remote attempts and should
	// match the executor's worker count.
	Workers int
	// Backend names the execution backend: "" or "local" runs jobs on the
	// in-process pool; any other value requires Executor. The backend is
	// an execution detail — it is deliberately excluded from Fingerprint,
	// so journals written under one backend resume under another.
	Backend string
	// Executor runs job attempts for a non-local Backend. Results cross a
	// JSON round-trip, which is byte-exact for the same reason journal
	// replay is.
	Executor Executor
	// Timeout bounds each job attempt's wall-clock time; 0 disables.
	Timeout time.Duration
	// Retries is the number of re-attempts after a failed or panicked
	// attempt (total attempts = Retries+1). A job that exhausts all
	// attempts is quarantined: reported in its outcome (and journaled with
	// its attempt history) without wedging a worker.
	Retries int
	// Backoff is the base delay before the first re-attempt; each further
	// re-attempt doubles it, capped by BackoffMax. The actual delay
	// carries deterministic per-(job, attempt) jitter in [0.5x, 1.5x), so
	// retry storms decorrelate without losing reproducibility. 0 retries
	// immediately.
	Backoff time.Duration
	// BackoffMax caps the exponential backoff; 0 selects 30s.
	BackoffMax time.Duration
	// DrainGrace is the window granted to in-flight job attempts when the
	// campaign context is cancelled (SIGINT/SIGTERM): attempts finishing
	// within it are journaled as completions instead of being abandoned.
	// 0 abandons in-flight work immediately on cancellation.
	DrainGrace time.Duration
	// JournalPath enables the JSONL checkpoint journal. Completed jobs
	// are appended as they finish; a re-run with the same path skips jobs
	// whose keys are already journaled, reusing the stored results.
	JournalPath string
	// Fingerprint guards the journal against being reused with a
	// different campaign: it is stored in the journal header and a
	// mismatch on resume is an error. Empty disables the check.
	Fingerprint string
	// Progress, when non-nil, receives periodic progress lines
	// (jobs done/failed/retried, jobs/sec, ETA) and a final summary.
	Progress io.Writer
	// ProgressEvery is the reporting period; 0 selects 2s.
	ProgressEvery time.Duration
	// LiveStatus, when non-nil, is bound to the campaign's live counters
	// so external pollers (the -debug-addr expvar endpoint) can snapshot
	// progress while the campaign runs.
	LiveStatus *LiveStatus
	// Chaos, when non-nil, injects scheduled faults at the harness's
	// durability fault points (journal writes/fsyncs, worker panics, hung
	// jobs, process kills). Nil runs fault-free.
	Chaos *chaos.Injector
}

// Outcome is one job's final state.
type Outcome[R any] struct {
	// Key is the job key.
	Key string
	// Result is the job's result (zero if Err != nil).
	Result R
	// Err is the terminal error after all attempts, nil on success.
	Err error
	// Attempts is the number of attempts executed (0 for journaled jobs).
	Attempts int
	// Elapsed is the wall-clock time across all attempts.
	Elapsed time.Duration
	// FromJournal marks a result restored from the checkpoint journal.
	FromJournal bool
	// Quarantined marks a poison job: every attempt failed on its own
	// merits (not campaign cancellation), so the job was given up on and
	// its failure journaled.
	Quarantined bool
	// PriorAttempts and PriorError carry the journaled failure history of
	// a job that was quarantined by an earlier (killed or resumed) run of
	// this campaign, so flaky-job history survives resume.
	PriorAttempts int
	PriorError    string
}

// Metrics summarises a campaign run.
type Metrics struct {
	// Total is the number of jobs in the campaign.
	Total int
	// Executed counts jobs that ran to success in this process.
	Executed int
	// Failed counts jobs whose final attempt failed.
	Failed int
	// Retried counts individual re-attempts across all jobs.
	Retried int
	// FromJournal counts jobs skipped because the journal had them.
	FromJournal int
	// Quarantined counts poison jobs that exhausted every attempt.
	Quarantined int
	// PriorFailures counts jobs whose journal carried failure history
	// from an earlier run of this campaign.
	PriorFailures int
	// JournalQuarantined counts corrupted journal records that were
	// quarantined on load (their jobs re-ran).
	JournalQuarantined int
	// JournalBytes counts checkpoint bytes appended by this process.
	JournalBytes int64
	// Backoffs counts retry backoff sleeps; BackoffTotal is their sum.
	Backoffs     int
	BackoffTotal time.Duration
	// Elapsed is the campaign wall-clock time.
	Elapsed time.Duration
}

// JobsPerSec returns the executed-job throughput. Journal-replayed jobs
// do not count — a resume that restores every job from the checkpoint did
// no work, so its throughput is 0, not N-jobs-over-epsilon. A degenerate
// elapsed time (zero, negative, or so small the division explodes)
// likewise reports 0 instead of an absurd or non-finite rate.
func (m Metrics) JobsPerSec() float64 {
	if m.Executed <= 0 || m.Elapsed <= 0 {
		return 0
	}
	rate := float64(m.Executed) / m.Elapsed.Seconds()
	if math.IsNaN(rate) || math.IsInf(rate, 0) {
		return 0
	}
	return rate
}

// Report holds a campaign's outcomes, in job order (deterministic: the
// order never depends on worker scheduling).
type Report[R any] struct {
	Outcomes []Outcome[R]
	Metrics  Metrics
	// Quarantined lists corrupted journal records rejected on load.
	Quarantined []QuarantinedRecord
}

// Err joins every job error, or returns nil if all jobs succeeded.
func (r *Report[R]) Err() error {
	var errs []error
	for _, o := range r.Outcomes {
		if o.Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", o.Key, o.Err))
		}
	}
	return errors.Join(errs...)
}

// Results returns all results in job order, or the joined error if any
// job failed.
func (r *Report[R]) Results() ([]R, error) {
	if err := r.Err(); err != nil {
		return nil, err
	}
	out := make([]R, len(r.Outcomes))
	for i, o := range r.Outcomes {
		out[i] = o.Result
	}
	return out, nil
}

// checkJobs rejects a job with an empty key or no Run function, and a key
// that repeats.
func checkJobs[R any](jobs []Job[R]) error {
	seen := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		if j.Key == "" {
			return errors.New("harness: job with empty key")
		}
		if j.Run == nil {
			return fmt.Errorf("harness: job %q has no Run function", j.Key)
		}
		if seen[j.Key] {
			return fmt.Errorf("harness: duplicate job key %q", j.Key)
		}
		seen[j.Key] = true
	}
	return nil
}

// Run executes the campaign: journaled jobs are restored, the rest fan out
// over the worker pool. The returned error covers harness-level failures
// (invalid jobs, journal I/O, context cancellation); per-job failures live
// in the outcomes and in Report.Err.
func Run[R any](ctx context.Context, jobs []Job[R], opts Options) (*Report[R], error) {
	start := time.Now()
	switch {
	case opts.Backend == "" || opts.Backend == BackendLocal:
		// The executor belongs to a non-local backend only; ignore it so a
		// caller flipping Backend back to local really runs locally.
		opts.Executor = nil
	case opts.Executor == nil:
		return nil, fmt.Errorf("harness: backend %q requires an Executor", opts.Backend)
	}
	if err := checkJobs(jobs); err != nil {
		return nil, err
	}

	var (
		jr *journal
		st *journalState
	)
	if opts.JournalPath != "" {
		var err error
		jr, st, err = openJournal(opts.JournalPath, opts.Fingerprint, opts.Chaos)
		if err != nil {
			return nil, err
		}
		defer jr.Close()
		if opts.Progress != nil {
			for _, q := range st.quarantined {
				fmt.Fprintf(opts.Progress, "harness: journal: quarantined corrupt record at %s\n", q)
			}
		}
	}

	outcomes := make([]Outcome[R], len(jobs))
	var pending []int
	c := &counters{}
	opts.LiveStatus.attach(len(jobs), c)
	if st != nil {
		c.journalQuarantined.Store(int64(len(st.quarantined)))
	}
	for i, j := range jobs {
		if st != nil {
			if f, ok := st.failures[j.Key]; ok {
				outcomes[i].PriorAttempts = f.Attempts
				outcomes[i].PriorError = f.Error
				c.priorFailures.Add(1)
			}
			if e, ok := st.completed[j.Key]; ok {
				var res R
				if err := e.decode(&res); err == nil {
					outcomes[i].Key = j.Key
					outcomes[i].Result = res
					outcomes[i].FromJournal = true
					c.fromJournal.Add(1)
					continue
				}
				// Undecodable checkpoint (e.g. the result type changed):
				// fall through and re-run the job.
			}
		}
		pending = append(pending, i)
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) && len(pending) > 0 {
		workers = len(pending)
	}

	rep := startReporter(opts, len(jobs), c)

	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				prior := outcomes[i]
				out := runJob(ctx, jobs[i], opts, c)
				out.PriorAttempts, out.PriorError = prior.PriorAttempts, prior.PriorError
				outcomes[i] = out
				if out.Err == nil {
					c.executed.Add(1)
					if jr != nil {
						if err := jr.append(out.Key, out.Result, out.Attempts, out.Elapsed); err != nil {
							c.journalErr(err)
						} else if opts.Chaos.Fire(chaos.ProcKill) {
							// Kill right after a checkpoint lands: the
							// canonical mid-campaign crash.
							opts.Chaos.Kill(chaos.ProcKill)
						}
					}
				} else {
					c.failed.Add(1)
					if out.Quarantined {
						c.quarantined.Add(1)
						if jr != nil {
							if err := jr.appendFailure(out.Key, out.Attempts, out.Elapsed, out.Err); err != nil {
								c.journalErr(err)
							}
						}
					}
				}
				c.journalBytes.Store(jr.Bytes())
			}
		}()
	}
feed:
	for _, i := range pending {
		select {
		case idxCh <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idxCh)
	wg.Wait()
	rep.stop()

	m := Metrics{
		Total:              len(jobs),
		Executed:           int(c.executed.Load()),
		Failed:             int(c.failed.Load()),
		Retried:            int(c.retried.Load()),
		FromJournal:        int(c.fromJournal.Load()),
		Quarantined:        int(c.quarantined.Load()),
		PriorFailures:      int(c.priorFailures.Load()),
		JournalQuarantined: int(c.journalQuarantined.Load()),
		JournalBytes:       c.journalBytes.Load(),
		Backoffs:           int(c.backoffs.Load()),
		BackoffTotal:       time.Duration(c.backoffNanos.Load()),
		Elapsed:            time.Since(start),
	}
	report := &Report[R]{Outcomes: outcomes, Metrics: m}
	if st != nil {
		report.Quarantined = st.quarantined
	}
	if opts.Progress != nil {
		fmt.Fprintf(opts.Progress, "harness: done: %d executed, %d from journal, %d failed, %d retried in %s (%.2f jobs/s)\n",
			m.Executed, m.FromJournal, m.Failed, m.Retried, m.Elapsed.Round(time.Millisecond), m.JobsPerSec())
	}
	if err := ctx.Err(); err != nil {
		return report, fmt.Errorf("harness: campaign interrupted: %w", err)
	}
	if err := c.takeJournalErr(); err != nil {
		return report, fmt.Errorf("harness: journal write failed: %w", err)
	}
	return report, nil
}

// runJob runs one job with bounded retry; panics and timeouts count as
// failed attempts. Re-attempts back off exponentially with deterministic
// per-(job, attempt) jitter. A job whose final attempt fails while the
// campaign is still live is quarantined as poison.
func runJob[R any](ctx context.Context, job Job[R], opts Options, c *counters) Outcome[R] {
	start := time.Now()
	out := Outcome[R]{Key: job.Key}
	for attempt := 1; attempt <= opts.Retries+1; attempt++ {
		if err := ctx.Err(); err != nil {
			out.Err = err
			break
		}
		out.Attempts = attempt
		res, err := runAttempt(ctx, job, opts)
		if err == nil {
			out.Result, out.Err = res, nil
			break
		}
		out.Err = err
		if ctx.Err() != nil {
			break // campaign cancelled: do not burn retries
		}
		if attempt <= opts.Retries {
			c.retried.Add(1)
			if d := backoffDelay(opts, job.Key, attempt); d > 0 {
				c.backoffs.Add(1)
				c.backoffNanos.Add(int64(d))
				if !sleepCtx(ctx, d) {
					out.Err = ctx.Err()
					out.Elapsed = time.Since(start)
					return out
				}
			}
		}
	}
	out.Elapsed = time.Since(start)
	// Poison quarantine: the job burnt every attempt on its own failures
	// (campaign-cancellation failures are not the job's fault).
	out.Quarantined = out.Err != nil && ctx.Err() == nil
	return out
}

// backoffDelay computes the delay before re-attempt number attempt+1:
// Backoff << (attempt-1), capped at BackoffMax, scaled by a deterministic
// jitter factor in [0.5, 1.5) derived from (job key, attempt). Pure
// function — a re-run of the same campaign backs off identically.
func backoffDelay(opts Options, key string, attempt int) time.Duration {
	if opts.Backoff <= 0 {
		return 0
	}
	max := opts.BackoffMax
	if max <= 0 {
		max = 30 * time.Second
	}
	d := opts.Backoff
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	u := stats.DeriveSeed(uint64(attempt), "backoff/"+key)
	jitter := 0.5 + float64(u%(1<<20))/float64(1<<20) // [0.5, 1.5)
	return time.Duration(float64(d) * jitter)
}

// sleepCtx sleeps for d or until ctx is cancelled; it reports whether the
// full sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// runAttempt executes one attempt under the per-job timeout, converting a
// panic into an error. The job runs in its own goroutine so a deadline can
// fire even if the job never checks the context; an over-deadline job is
// abandoned, not killed. When the campaign context (not the per-job
// deadline) is what fired, Options.DrainGrace grants the in-flight attempt
// a window to finish so its completion can still be journaled — the
// graceful-drain half of SIGINT handling.
func runAttempt[R any](ctx context.Context, job Job[R], opts Options) (R, error) {
	actx := ctx
	cancel := func() {}
	if opts.Timeout > 0 {
		actx, cancel = context.WithTimeout(ctx, opts.Timeout)
	}
	defer cancel()
	type attempt struct {
		val R
		err error
	}
	ch := make(chan attempt, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				var zero R
				ch <- attempt{zero, fmt.Errorf("job panicked: %v", p)}
			}
		}()
		if opts.Chaos.Fire(chaos.WorkerPanic) {
			panic("chaos: injected worker panic")
		}
		if opts.Chaos.Fire(chaos.JobHang) {
			// A hung job: block until the attempt context dies, then fail.
			<-actx.Done()
			var zero R
			ch <- attempt{zero, &chaos.Error{Point: chaos.JobHang, Op: "job attempt"}}
			return
		}
		if opts.Executor != nil {
			var v R
			raw, err := opts.Executor.Execute(actx, job.Key)
			if err == nil {
				err = json.Unmarshal(raw, &v)
				if err != nil {
					err = fmt.Errorf("harness: decode remote result for %q: %w", job.Key, err)
				}
			}
			ch <- attempt{v, err}
			return
		}
		v, err := job.Run(actx)
		ch <- attempt{v, err}
	}()
	select {
	case a := <-ch:
		return a.val, a.err
	case <-actx.Done():
		if ctx.Err() != nil && opts.DrainGrace > 0 {
			// Campaign-level cancellation: drain rather than abandon.
			grace := time.NewTimer(opts.DrainGrace)
			defer grace.Stop()
			select {
			case a := <-ch:
				return a.val, a.err
			case <-grace.C:
			}
		}
		var zero R
		return zero, fmt.Errorf("job abandoned: %w", actx.Err())
	}
}
