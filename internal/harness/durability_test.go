package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ptguard/internal/chaos"
)

// mustChaos parses a chaos spec or fails the test.
func mustChaos(t *testing.T, spec string, seed uint64) *chaos.Injector {
	t.Helper()
	in, err := chaos.Parse(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestJournalV1RecordsQuarantined(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	// A v1 journal: plain JSONL records with no CRC frames. Nothing vouches
	// for their bytes, so each is quarantined and its job re-runs.
	v1 := `{"journal":"ptguard-harness","version":1,"fingerprint":"spec-v1"}
{"key":"a","result":999,"attempts":1,"elapsed_ms":1}
{"key":"b","result":999,"attempts":2,"elapsed_ms":2}
`
	if err := os.WriteFile(journal, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	job := func(key string, v int) Job[int] {
		return Job[int]{Key: key, Run: func(context.Context) (int, error) { ran.Add(1); return v, nil }}
	}
	jobs := []Job[int]{job("a", 101), job("b", 102), job("c", 103)}
	opts := Options{JournalPath: journal, Fingerprint: "spec-v1"}
	rep, err := Run(context.Background(), jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.FromJournal != 0 || ran.Load() != 3 {
		t.Fatalf("metrics = %+v, %d jobs ran", rep.Metrics, ran.Load())
	}
	if len(rep.Quarantined) != 2 {
		t.Fatalf("quarantined = %v, want both v1 records", rep.Quarantined)
	}
	for i, q := range rep.Quarantined {
		if want := []string{"a", "b"}[i]; q.Key != want || !strings.Contains(q.Reason, "not CRC-framed") {
			t.Errorf("quarantine %d = %+v, want job %q not CRC-framed", i, q, want)
		}
	}
	res, err := rep.Results()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{101, 102, 103} {
		if res[i] != want {
			t.Errorf("result %d = %d, want %d", i, res[i], want)
		}
	}
	// The journal is compacted to v2: a version-2 header and CRC frames.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	// Only the stale v1 records carry "result":999; a bare 999 could also
	// appear in a fresh record's elapsed_ms.
	if !bytes.Contains(data, []byte(`"version":2`)) || bytes.Contains(data, []byte(`"result":999`)) {
		t.Errorf("journal not compacted to clean v2:\n%s", data)
	}
}

func TestJournalQuarantinesCorruptMidFileRecord(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	opts := Options{Workers: 1, JournalPath: journal}
	jobs := []Job[int]{intJob("a", 1), intJob("b", 2), intJob("c", 3)}
	if _, err := Run(context.Background(), jobs, opts); err != nil {
		t.Fatal(err)
	}

	// Flip one byte inside the middle record (line 3: header, a, b, c).
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(data, []byte("\n"))
	mid := lines[2]
	i := bytes.Index(mid, []byte(`"key":"b"`))
	if i < 0 {
		t.Fatalf("line layout unexpected: %s", mid)
	}
	mid[i+len(`"key":"`)] ^= 0x01 // "b" -> some other key byte
	if err := os.WriteFile(journal, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	var reran atomic.Int64
	jobs = []Job[int]{intJob("a", 1),
		{Key: "b", Run: func(context.Context) (int, error) { reran.Add(1); return 2, nil }},
		intJob("c", 3)}
	var progress bytes.Buffer
	opts.Progress = &progress
	rep, err := Run(context.Background(), jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The corrupted record is quarantined — reported, and its job re-run —
	// while the intact records still satisfy the resume.
	if rep.Metrics.FromJournal != 2 || reran.Load() != 1 {
		t.Fatalf("metrics = %+v, b re-ran %d times", rep.Metrics, reran.Load())
	}
	if rep.Metrics.JournalQuarantined != 1 || len(rep.Quarantined) != 1 {
		t.Fatalf("quarantine not reported: metrics=%+v records=%v", rep.Metrics, rep.Quarantined)
	}
	q := rep.Quarantined[0]
	if q.Line != 3 || !strings.Contains(q.Reason, "CRC mismatch") {
		t.Errorf("quarantine record = %+v", q)
	}
	if !strings.Contains(progress.String(), "quarantined corrupt record") {
		t.Errorf("quarantine not surfaced in progress output:\n%s", progress.String())
	}
	if _, err := rep.Results(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalHandlesOversizedRecords(t *testing.T) {
	// A >16MB record aborted resume under the old bufio.Scanner line cap
	// with an opaque "token too long"; the streaming loader must take it.
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	big := strings.Repeat("x", 17<<20)
	opts := Options{JournalPath: journal}
	jobs := []Job[string]{{Key: "big", Run: func(context.Context) (string, error) { return big, nil }}}
	if _, err := Run(context.Background(), jobs, opts); err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	jobs = []Job[string]{{Key: "big", Run: func(context.Context) (string, error) { ran.Add(1); return big, nil }}}
	rep, err := Run(context.Background(), jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.FromJournal != 1 || ran.Load() != 0 {
		t.Fatalf("oversized record not resumed: metrics=%+v ran=%d", rep.Metrics, ran.Load())
	}
	if rep.Outcomes[0].Result != big {
		t.Error("oversized result mismatch after resume")
	}
}

func TestQuarantinedJobReRunsOnResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	opts := Options{JournalPath: journal, Retries: 1}
	fail := true
	var flakyRuns atomic.Int64
	mkJobs := func() []Job[int] {
		return []Job[int]{intJob("ok", 1), {
			Key: "flaky",
			Run: func(context.Context) (int, error) {
				flakyRuns.Add(1)
				if fail {
					return 0, errors.New("transient dependency down")
				}
				return 2, nil
			},
		}}
	}

	// First run: flaky exhausts its attempts and is quarantined; only the
	// completed job is journaled.
	rep, err := Run(context.Background(), mkJobs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	o := rep.Outcomes[1]
	if !o.Quarantined || o.Attempts != 2 {
		t.Fatalf("first-run outcome = %+v", o)
	}
	if rep.Metrics.Quarantined != 1 {
		t.Fatalf("metrics = %+v", rep.Metrics)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"flaky"`)) {
		t.Errorf("quarantined job journaled:\n%s", data)
	}

	// Second run: the quarantined job re-runs, and now succeeds.
	fail = false
	flakyRuns.Store(0)
	rep, err = Run(context.Background(), mkJobs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	o = rep.Outcomes[1]
	if o.Err != nil || o.Result != 2 || o.FromJournal || flakyRuns.Load() != 1 {
		t.Fatalf("second-run outcome = %+v (%d runs)", o, flakyRuns.Load())
	}
	if m := rep.Metrics; m.FromJournal != 1 || m.Executed != 1 || m.Quarantined != 0 {
		t.Errorf("second-run metrics = %+v", m)
	}

	// Third run: both jobs restore from the journal.
	rep, err = Run(context.Background(), mkJobs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if o = rep.Outcomes[1]; !o.FromJournal || o.Result != 2 {
		t.Errorf("third-run outcome = %+v", o)
	}
}

// legacyFailureJournal is a journal as builds before the failure records
// were dropped wrote it for a campaign whose job "b" exhausted its two
// attempts: a completed record for "a", then a CRC-framed failure record
// for "b" that carries no result.
func legacyFailureJournal(fingerprint string) []byte {
	frame := func(entry string) string {
		return fmt.Sprintf(`{"crc":"%s","e":%s}`, frameCRC([]byte(entry)), entry) + "\n"
	}
	return []byte(`{"journal":"ptguard-harness","version":2,"fingerprint":"` + fingerprint + `"}` + "\n" +
		frame(`{"key":"a","result":1,"attempts":1,"elapsed_ms":0.5}`) +
		frame(`{"key":"b","attempts":2,"elapsed_ms":1.5,"failed":true,"error":"job panicked: boom"}`))
}

func TestLegacyFailureRecordReRuns(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	if err := os.WriteFile(journal, legacyFailureJournal("legacy"), 0o644); err != nil {
		t.Fatal(err)
	}
	var ranA, ranB atomic.Int64
	jobs := []Job[int]{
		{Key: "a", Run: func(context.Context) (int, error) { ranA.Add(1); return 1, nil }},
		{Key: "b", Run: func(context.Context) (int, error) { ranB.Add(1); return 2, nil }},
	}
	rep, err := Run(context.Background(), jobs, Options{JournalPath: journal, Fingerprint: "legacy"})
	if err != nil {
		t.Fatal(err)
	}
	// The failure record satisfies nothing: "a" restores, "b" re-runs, and
	// the dropped record is not reported as corruption.
	if ranA.Load() != 0 || ranB.Load() != 1 {
		t.Fatalf("a ran %d times, b ran %d times; want 0 and 1", ranA.Load(), ranB.Load())
	}
	if m := rep.Metrics; m.FromJournal != 1 || m.Executed != 1 || m.JournalQuarantined != 0 || len(rep.Quarantined) != 0 {
		t.Fatalf("metrics = %+v, quarantined = %v", m, rep.Quarantined)
	}
	if res, err := rep.Results(); err != nil || res[0] != 1 || res[1] != 2 {
		t.Fatalf("results = %v, %v", res, err)
	}
	// The open compacted the failure record away; the journal now holds
	// the header and one completed record per job.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"failed"`)) || bytes.Count(data, []byte("\n")) != 3 {
		t.Errorf("failure record not compacted away:\n%s", data)
	}
	st, err := loadJournal(bytes.NewReader(data), "legacy")
	if err != nil {
		t.Fatal(err)
	}
	if st.dirty() || len(st.completed) != 2 {
		t.Errorf("reloaded journal: dirty=%v, %d completed", st.dirty(), len(st.completed))
	}
}

func TestFailureAfterCancelIsNotRetried(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	job := Job[int]{Key: "doomed", Run: func(context.Context) (int, error) {
		cancel()
		return 0, errors.New("fails, then campaign is gone")
	}}
	rep, err := Run(ctx, []Job[int]{job}, Options{Retries: 3})
	if err == nil {
		t.Fatal("cancelled campaign returned nil error")
	}
	o := rep.Outcomes[0]
	if o.Attempts != 1 || rep.Metrics.Retried != 0 {
		t.Errorf("job failing after cancellation was retried: %+v, metrics %+v", o, rep.Metrics)
	}
	if o.Quarantined || rep.Metrics.Quarantined != 0 {
		t.Errorf("cancellation-aborted job marked poison: %+v", o)
	}
}

func TestDrainGraceJournalsInFlightCompletion(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The job ignores its context (common for tight simulation loops) and
	// finishes shortly after the campaign is cancelled mid-flight.
	job := Job[int]{Key: "inflight", Run: func(context.Context) (int, error) {
		cancel()
		time.Sleep(50 * time.Millisecond)
		return 11, nil
	}}
	opts := Options{JournalPath: journal}
	rep, err := Run(ctx, []Job[int]{job}, opts)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want campaign interrupted", err)
	}
	if o := rep.Outcomes[0]; o.Err != nil || o.Result != 11 {
		t.Fatalf("drained outcome = %+v", o)
	}

	// The drained completion was journaled: a resume restores it.
	var ran atomic.Int64
	job2 := Job[int]{Key: "inflight", Run: func(context.Context) (int, error) { ran.Add(1); return 11, nil }}
	rep, err = Run(context.Background(), []Job[int]{job2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.FromJournal != 1 || ran.Load() != 0 {
		t.Fatalf("drain completion lost: metrics=%+v ran=%d", rep.Metrics, ran.Load())
	}
}

func TestInFlightPastDrainGraceIsAbandoned(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	job := Job[int]{Key: "inflight", Run: func(context.Context) (int, error) {
		cancel()
		time.Sleep(drainGrace + 500*time.Millisecond)
		return 11, nil
	}}
	start := time.Now()
	rep, err := Run(ctx, []Job[int]{job}, Options{})
	if err == nil {
		t.Fatal("cancelled campaign returned nil error")
	}
	if o := rep.Outcomes[0]; o.Err == nil || !strings.Contains(o.Err.Error(), "abandoned") {
		t.Fatalf("in-flight job outliving the grace not abandoned: %+v", o)
	}
	if elapsed := time.Since(start); elapsed < drainGrace {
		t.Errorf("abandoned after %v, before the %v grace ran out", elapsed, drainGrace)
	}
}

func TestChaosWorkerPanicIsRecoveredAndRetried(t *testing.T) {
	inj := mustChaos(t, "worker.panic:after=1", 1)
	rep, err := Run(context.Background(), []Job[int]{intJob("a", 5)},
		Options{Retries: 1, Chaos: inj})
	if err != nil {
		t.Fatal(err)
	}
	o := rep.Outcomes[0]
	if o.Err != nil || o.Result != 5 || o.Attempts != 2 {
		t.Fatalf("outcome = %+v", o)
	}
	if rep.Metrics.Retried != 1 {
		t.Errorf("metrics = %+v", rep.Metrics)
	}
	if inj.Injected()[chaos.WorkerPanic] != 1 {
		t.Errorf("injections = %v", inj.Injected())
	}
}

func TestChaosJobHangHitsTimeoutAndRetries(t *testing.T) {
	inj := mustChaos(t, "job.hang:after=1", 1)
	rep, err := Run(context.Background(), []Job[int]{intJob("a", 5)},
		Options{Retries: 1, Timeout: 50 * time.Millisecond, Chaos: inj})
	if err != nil {
		t.Fatal(err)
	}
	o := rep.Outcomes[0]
	if o.Err != nil || o.Result != 5 || o.Attempts != 2 {
		t.Fatalf("outcome = %+v", o)
	}
}

func TestChaosJournalWriteFailureIsReportedNotFatal(t *testing.T) {
	for _, spec := range []string{"journal.write:after=2", "disk.full:after=2", "journal.fsync:after=2"} {
		t.Run(spec, func(t *testing.T) {
			journal := filepath.Join(t.TempDir(), "campaign.jsonl")
			inj := mustChaos(t, spec, 1)
			// Write 1 is the header; the fault lands on the first record.
			rep, err := Run(context.Background(),
				[]Job[int]{intJob("a", 1)},
				Options{Workers: 1, JournalPath: journal, Chaos: inj})
			if err == nil || !strings.Contains(err.Error(), "journal write failed") {
				t.Fatalf("err = %v, want journal write failure", err)
			}
			// The campaign still produced its full report in memory.
			if o := rep.Outcomes[0]; o.Err != nil || o.Result != 1 {
				t.Fatalf("outcome = %+v", o)
			}
			if inj.InjectedTotal() == 0 {
				t.Error("no fault fired")
			}
		})
	}
}

func TestChaosShortWriteThenCrashResumesExactly(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	jobs := func(execs *atomic.Int64) []Job[int] {
		var out []Job[int]
		for i := 0; i < 5; i++ {
			i := i
			out = append(out, Job[int]{
				Key: fmt.Sprintf("job-%d", i),
				Run: func(context.Context) (int, error) {
					if execs != nil {
						execs.Add(1)
					}
					return 100 + i, nil
				},
			})
		}
		return out
	}

	// Torn write on the 4th journal write (header + jobs 0,1, then half of
	// job 2's record), followed by a "crash" — stubbed to keep the test
	// process alive; the harness then sees a journal error and finishes.
	inj := mustChaos(t, "journal.short-write:after=4", 1)
	inj.SetExit(func(int) {})
	_, err := Run(context.Background(), jobs(nil),
		Options{Workers: 1, JournalPath: journal, Chaos: inj})
	if err == nil {
		t.Fatal("short-write run reported no journal error")
	}

	// Resume without chaos: the torn tail is shed, intact records are
	// reused, the rest re-run, and the merged results are exact.
	var execs atomic.Int64
	rep, err := Run(context.Background(), jobs(&execs), Options{Workers: 1, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rep.Results()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res {
		if v != 100+i {
			t.Errorf("result %d = %d, want %d", i, v, 100+i)
		}
	}
	if rep.Metrics.FromJournal == 0 || execs.Load() == int64(len(res)) {
		t.Errorf("resume reused nothing: metrics=%+v execs=%d", rep.Metrics, execs.Load())
	}
}

func TestChaosProcKillFiresAfterCheckpoint(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	inj := mustChaos(t, "proc.kill:after=2", 1)
	var code atomic.Int64
	code.Store(-1)
	inj.SetExit(func(c int) { code.Store(int64(c)) })
	rep, err := Run(context.Background(),
		[]Job[int]{intJob("a", 1), intJob("b", 2), intJob("c", 3)},
		Options{Workers: 1, JournalPath: journal, Chaos: inj})
	if err != nil {
		t.Fatal(err)
	}
	if code.Load() != chaos.KillExitCode {
		t.Fatalf("kill exit code = %d, want %d", code.Load(), chaos.KillExitCode)
	}
	// With the exit stubbed out the campaign runs to completion; the kill
	// fired after the second job's checkpoint landed.
	if rep.Metrics.Executed != 3 {
		t.Errorf("metrics = %+v", rep.Metrics)
	}
}

func TestJournalBytesCounter(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	rep, err := Run(context.Background(), []Job[int]{intJob("a", 1), intJob("b", 2)},
		Options{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(journal)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.JournalBytes != fi.Size() {
		t.Errorf("JournalBytes = %d, file size = %d", rep.Metrics.JournalBytes, fi.Size())
	}
}
