package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// intJob builds a trivial job returning v.
func intJob(key string, v int) Job[int] {
	return Job[int]{Key: key, Run: func(context.Context) (int, error) { return v, nil }}
}

func TestRunCollectsResultsInJobOrder(t *testing.T) {
	var jobs []Job[int]
	for i := 0; i < 20; i++ {
		jobs = append(jobs, intJob(fmt.Sprintf("job-%02d", i), i*i))
	}
	rep, err := Run(context.Background(), jobs, Options{Workers: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rep.Results()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d", i, v, i*i)
		}
	}
	if rep.Metrics.Executed != 20 || rep.Metrics.Failed != 0 {
		t.Fatalf("metrics = %+v", rep.Metrics)
	}
}

func TestRunRejectsInvalidJobs(t *testing.T) {
	if _, err := Run(context.Background(), []Job[int]{intJob("a", 1), intJob("a", 2)}, Options{}); err == nil {
		t.Error("duplicate key accepted")
	}
	if _, err := Run(context.Background(), []Job[int]{intJob("", 1)}, Options{}); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := Run(context.Background(), []Job[int]{{Key: "x"}}, Options{}); err == nil {
		t.Error("nil Run accepted")
	}
}

func TestRetryOnPanic(t *testing.T) {
	var attempts atomic.Int64
	job := Job[int]{
		Key: "panicky",
		Run: func(context.Context) (int, error) {
			if attempts.Add(1) < 3 {
				panic("transient fault")
			}
			return 7, nil
		},
	}
	rep, err := Run(context.Background(), []Job[int]{job}, Options{Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	o := rep.Outcomes[0]
	if o.Err != nil || o.Result != 7 {
		t.Fatalf("outcome = %+v", o)
	}
	if o.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", o.Attempts)
	}
	if rep.Metrics.Retried != 2 {
		t.Errorf("retried = %d, want 2", rep.Metrics.Retried)
	}
}

func TestPanicExhaustsRetries(t *testing.T) {
	job := Job[int]{
		Key: "always-panics",
		Run: func(context.Context) (int, error) { panic("permanent fault") },
	}
	rep, err := Run(context.Background(), []Job[int]{job}, Options{Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	o := rep.Outcomes[0]
	if o.Err == nil || !strings.Contains(o.Err.Error(), "panicked") {
		t.Fatalf("err = %v, want panic error", o.Err)
	}
	if o.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", o.Attempts)
	}
	if rep.Err() == nil {
		t.Error("Report.Err() = nil for failed campaign")
	}
	if _, err := rep.Results(); err == nil {
		t.Error("Results() succeeded for failed campaign")
	}
}

func TestPerJobTimeout(t *testing.T) {
	slow := Job[int]{
		Key: "ctx-aware",
		Run: func(ctx context.Context) (int, error) {
			select {
			case <-time.After(5 * time.Second):
				return 1, nil
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		},
	}
	// A job that never checks its context must still be timed out
	// (abandoned) by the harness.
	stubborn := Job[int]{
		Key: "ctx-ignoring",
		Run: func(context.Context) (int, error) {
			time.Sleep(300 * time.Millisecond)
			return 2, nil
		},
	}
	rep, err := Run(context.Background(), []Job[int]{slow, stubborn},
		Options{Workers: 2, Timeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range rep.Outcomes {
		if o.Err == nil {
			t.Errorf("%s: expected timeout, got success", o.Key)
		} else if !errors.Is(o.Err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want deadline exceeded", o.Key, o.Err)
		}
	}
	if rep.Metrics.Failed != 2 {
		t.Errorf("failed = %d, want 2", rep.Metrics.Failed)
	}
}

func TestResumeFromJournal(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "campaign.jsonl")
	var executions atomic.Int64
	mkJobs := func(n int, failFrom int) []Job[int] {
		var jobs []Job[int]
		for i := 0; i < n; i++ {
			i := i
			jobs = append(jobs, Job[int]{
				Key: fmt.Sprintf("job-%02d", i),
				Run: func(context.Context) (int, error) {
					executions.Add(1)
					if failFrom >= 0 && i >= failFrom {
						return 0, errors.New("simulated crash")
					}
					return 100 + i, nil
				},
			})
		}
		return jobs
	}

	// First run: jobs 4.. fail (standing in for an interrupted campaign);
	// only the three successes are checkpointed.
	opts := Options{Workers: 2, JournalPath: journal, Fingerprint: "spec-v1"}
	rep, err := Run(context.Background(), mkJobs(6, 3), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.Executed != 3 || rep.Metrics.Failed != 3 {
		t.Fatalf("first run metrics = %+v", rep.Metrics)
	}

	// Second run resumes: the three journaled jobs are restored without
	// re-executing, the rest run (and now succeed).
	executions.Store(0)
	rep, err = Run(context.Background(), mkJobs(6, -1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := executions.Load(); got != 3 {
		t.Errorf("second run executed %d jobs, want 3", got)
	}
	if rep.Metrics.FromJournal != 3 || rep.Metrics.Executed != 3 {
		t.Errorf("second run metrics = %+v", rep.Metrics)
	}
	res, err := rep.Results()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res {
		if v != 100+i {
			t.Errorf("result %d = %d, want %d", i, v, 100+i)
		}
		if (i < 3) != rep.Outcomes[i].FromJournal {
			t.Errorf("job %d FromJournal = %v", i, rep.Outcomes[i].FromJournal)
		}
	}

	// Third run: everything is journaled; nothing executes.
	executions.Store(0)
	rep, err = Run(context.Background(), mkJobs(6, -1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if executions.Load() != 0 || rep.Metrics.FromJournal != 6 {
		t.Errorf("third run executed %d, metrics %+v", executions.Load(), rep.Metrics)
	}
}

func TestJournalToleratesTornTrailingLine(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "campaign.jsonl")
	opts := Options{JournalPath: journal}
	if _, err := Run(context.Background(), []Job[int]{intJob("a", 1), intJob("b", 2)}, opts); err != nil {
		t.Fatal(err)
	}
	// Simulate a kill mid-append: a torn, half-written JSON line.
	f, err := os.OpenFile(journal, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"c","resu`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var ran atomic.Int64
	jobs := []Job[int]{intJob("a", 1), intJob("b", 2),
		{Key: "c", Run: func(context.Context) (int, error) { ran.Add(1); return 3, nil }}}
	rep, err := Run(context.Background(), jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.FromJournal != 2 || ran.Load() != 1 {
		t.Errorf("metrics = %+v, c ran %d times", rep.Metrics, ran.Load())
	}
}

func TestJournalFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "campaign.jsonl")
	if _, err := Run(context.Background(), []Job[int]{intJob("a", 1)},
		Options{JournalPath: journal, Fingerprint: "spec-v1"}); err != nil {
		t.Fatal(err)
	}
	_, err := Run(context.Background(), []Job[int]{intJob("a", 1)},
		Options{JournalPath: journal, Fingerprint: "spec-v2"})
	if err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("err = %v, want fingerprint mismatch", err)
	}
}

// TestJournalWithoutFingerprintRefused resumes a fingerprinted campaign
// from a journal holding one valid CRC-framed record (result 999) under a
// header that names no campaign, and under no header at all. Nothing ties
// that record to the campaign, so Run must refuse the journal, run no job
// and leave the file as it was.
func TestJournalWithoutFingerprintRefused(t *testing.T) {
	entry := []byte(`{"key":"a","result":999,"attempts":1,"elapsed_ms":1}`)
	record, err := json.Marshal(journalFrame{CRC: frameCRC(entry), Entry: entry})
	if err != nil {
		t.Fatal(err)
	}
	for name, header := range map[string]string{
		"header without fingerprint": `{"journal":"ptguard-harness","version":2}` + "\n",
		"no header":                  "",
	} {
		t.Run(name, func(t *testing.T) {
			journal := filepath.Join(t.TempDir(), "campaign.jsonl")
			data := []byte(header + string(record) + "\n")
			if err := os.WriteFile(journal, data, 0o644); err != nil {
				t.Fatal(err)
			}
			var ran atomic.Int64
			jobs := []Job[int]{{Key: "a", Run: func(context.Context) (int, error) { ran.Add(1); return 1, nil }}}
			_, err := Run(context.Background(), jobs,
				Options{JournalPath: journal, Fingerprint: "sweep seed=1 results=v2 spec=x"})
			if err == nil || !strings.Contains(err.Error(), "different campaign") {
				t.Fatalf("err = %v, want fingerprint mismatch", err)
			}
			if ran.Load() != 0 {
				t.Errorf("%d jobs ran", ran.Load())
			}
			if after, _ := os.ReadFile(journal); !bytes.Equal(after, data) {
				t.Errorf("refused journal rewritten:\n%s", after)
			}
		})
	}
}

func TestContextCancellationStopsCampaign(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	var jobs []Job[int]
	for i := 0; i < 50; i++ {
		jobs = append(jobs, Job[int]{
			Key: fmt.Sprintf("job-%02d", i),
			Run: func(ctx context.Context) (int, error) {
				if started.Add(1) == 2 {
					cancel()
				}
				<-ctx.Done()
				return 0, ctx.Err()
			},
		})
	}
	rep, err := Run(ctx, jobs, Options{Workers: 2})
	if err == nil {
		t.Fatal("cancelled campaign returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || started.Load() >= 50 {
		t.Errorf("cancellation did not stop the feed (started %d)", started.Load())
	}
}

func TestProgressReporterEmitsLines(t *testing.T) {
	var buf bytes.Buffer
	var jobs []Job[int]
	for i := 0; i < 8; i++ {
		i := i
		jobs = append(jobs, Job[int]{
			Key: fmt.Sprintf("job-%d", i),
			Run: func(context.Context) (int, error) {
				time.Sleep(5 * time.Millisecond)
				return i, nil
			},
		})
	}
	_, err := Run(context.Background(), jobs, Options{
		Workers: 2, Progress: &buf, ProgressEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "jobs/s") || !strings.Contains(out, "ETA") {
		t.Errorf("progress output missing rate/ETA:\n%s", out)
	}
	if !strings.Contains(out, "harness: done: 8 executed") {
		t.Errorf("missing final summary:\n%s", out)
	}
}

// TestMetricsCounterIdentity checks the campaign counters against each
// other: in any run that is not cancelled every job is executed, failed or
// restored from the journal exactly once, and only a failed job can be
// quarantined. It covers a fresh run, a run resumed from its journal and a
// run with a poison job.
func TestMetricsCounterIdentity(t *testing.T) {
	check := func(stage string, m Metrics, total int) {
		t.Helper()
		if m.Total != total {
			t.Errorf("%s: total %d, want %d", stage, m.Total, total)
		}
		if m.Executed+m.Failed+m.FromJournal != m.Total {
			t.Errorf("%s: executed %d + failed %d + from journal %d != total %d",
				stage, m.Executed, m.Failed, m.FromJournal, m.Total)
		}
		if m.Quarantined > m.Failed {
			t.Errorf("%s: quarantined %d > failed %d", stage, m.Quarantined, m.Failed)
		}
	}
	var failing atomic.Bool
	mkJobs := func() []Job[int] {
		var jobs []Job[int]
		for i := 0; i < 8; i++ {
			jobs = append(jobs, intJob(fmt.Sprintf("job-%d", i), i))
		}
		jobs = append(jobs, Job[int]{Key: "poison", Run: func(context.Context) (int, error) {
			if failing.Load() {
				panic("poison job")
			}
			return 8, nil
		}})
		return jobs
	}
	opts := Options{Workers: 3, Retries: 1, JournalPath: filepath.Join(t.TempDir(), "campaign.jsonl")}

	rep, err := Run(context.Background(), mkJobs(), Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	check("fresh", rep.Metrics, 9)

	failing.Store(true)
	rep, err = Run(context.Background(), mkJobs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.Failed != 1 || rep.Metrics.Quarantined != 1 {
		t.Errorf("poison run metrics = %+v, want one failed, quarantined job", rep.Metrics)
	}
	check("poison", rep.Metrics, 9)

	failing.Store(false)
	rep, err = Run(context.Background(), mkJobs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.FromJournal != 8 || rep.Metrics.Executed != 1 {
		t.Errorf("resumed run metrics = %+v, want 8 from journal and 1 executed", rep.Metrics)
	}
	check("resumed", rep.Metrics, 9)
}

// TestLiveStatusMatchesMetrics checks the -debug-addr view of a campaign:
// zero before Run, consistent while a poller reads it during Run, the
// final Metrics (less Elapsed) after it, published under the page's keys.
func TestLiveStatusMatchesMetrics(t *testing.T) {
	live := &LiveStatus{}
	if got := live.Snapshot(); got != (Metrics{}) {
		t.Fatalf("snapshot before Run = %+v, want zero", got)
	}
	var nilStatus *LiveStatus
	if got := nilStatus.Snapshot(); got != (Metrics{}) {
		t.Fatalf("nil status snapshot = %+v, want zero", got)
	}
	var attempts atomic.Int64
	jobs := []Job[int]{intJob("a", 1), intJob("b", 2),
		{Key: "flappy", Run: func(context.Context) (int, error) {
			if attempts.Add(1) == 1 {
				return 0, errors.New("flap")
			}
			return 3, nil
		}},
		{Key: "poison", Run: func(context.Context) (int, error) { panic("poison job") }},
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Counters are read one by one, so only bounds hold mid-run.
			m := live.Snapshot()
			if m.Executed+m.Failed+m.FromJournal > m.Total {
				t.Errorf("inconsistent live snapshot %+v", m)
				return
			}
		}
	}()
	rep, err := Run(context.Background(), jobs, Options{
		Workers: 2, Retries: 1, LiveStatus: live,
		JournalPath: filepath.Join(t.TempDir(), "campaign.jsonl"),
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	want := rep.Metrics
	want.Elapsed = 0
	if got := live.Snapshot(); got != want {
		t.Errorf("snapshot after Run = %+v, want %+v", got, want)
	}
	if want.Retried == 0 || want.Quarantined == 0 || want.JournalBytes == 0 {
		t.Errorf("metrics = %+v, want retries, a quarantine and journal bytes", want)
	}
	raw, err := json.Marshal(live.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]any
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"total", "executed", "failed", "retried", "from_journal",
		"quarantined", "journal_quarantined", "journal_bytes"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("snapshot JSON lacks %q: %s", k, raw)
		}
		delete(keys, k)
	}
	if len(keys) != 0 {
		t.Errorf("snapshot JSON has extra keys %v: %s", keys, raw)
	}
}
