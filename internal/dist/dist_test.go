package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"

	"ptguard/internal/chaos"
	"ptguard/internal/dist/disttest"
	"ptguard/internal/harness"
)

// TestMain doubles as the worker binary: the coordinator tests re-exec
// this test executable with PTGUARD_DIST_WORKER=1, which routes straight
// into Serve instead of the test runner — so the real subprocess
// machinery (spawn, pipes, kill, respawn) is exercised without needing
// a ptguard binary.
func TestMain(m *testing.M) {
	if os.Getenv("PTGUARD_DIST_WORKER") == "1" {
		if err := Serve(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// startProc spawns a proc-backend coordinator whose workers are this
// test binary in worker mode.
func startProc(t *testing.T, c Campaign, workers int, inj *chaos.Injector) *Coordinator {
	t.Helper()
	co, err := Start(c, Options{
		Workers:       workers,
		WorkerCommand: []string{os.Args[0]},
		WorkerEnv:     []string{"PTGUARD_DIST_WORKER=1"},
		Chaos:         inj,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(co.Close)
	return co
}

// runCampaign runs jobs through the harness and returns the marshalled
// results — the byte-identity currency of every determinism test here.
func runCampaign[R any](t *testing.T, jobs []harness.Job[R], opts harness.Options) []byte {
	t.Helper()
	rep, err := harness.Run(context.Background(), jobs, opts)
	if err != nil {
		t.Fatalf("harness.Run: %v", err)
	}
	results, err := rep.Results()
	if err != nil {
		t.Fatalf("Results: %v", err)
	}
	raw, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// procOpts wires a coordinator into harness options.
func procOpts(co *Coordinator) harness.Options {
	return harness.Options{Backend: "proc", Executor: co, Workers: co.Width()}
}

// TestProcBackendDeterminismSlowdown pins the tentpole guarantee on a
// real simulation campaign: report.Results bytes are identical whether
// the campaign ran in-process or sharded across 1 or 4 worker processes.
func TestProcBackendDeterminismSlowdown(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	spec := harness.SlowdownSpec{
		Workloads: []string{"leela", "povray"}, Warmup: 500, Instructions: 1000,
	}
	const seed = 42
	jobs, err := spec.Jobs(seed)
	if err != nil {
		t.Fatal(err)
	}
	campaign := Campaign{Kind: KindSlowdown, Spec: spec, Seed: seed}

	local := runCampaign(t, jobs, harness.Options{Workers: 4})
	for _, workers := range []int{1, 4} {
		co := startProc(t, campaign, workers, nil)
		got := runCampaign(t, jobs, procOpts(co))
		if string(got) != string(local) {
			t.Errorf("proc-%d results diverge from local:\nlocal: %.200s\nproc:  %.200s", workers, local, got)
		}
		st := co.Status()
		if st.Completed != int64(len(jobs)) {
			t.Errorf("proc-%d: Completed = %d, want %d", workers, st.Completed, len(jobs))
		}
	}
}

// TestProcBackendDeterminismFaults repeats the byte-identity check on a
// fault-injection campaign (different result type, error-carrying jobs).
func TestProcBackendDeterminismFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	spec := harness.FaultSpec{
		Models: []string{"1bit", "2bit"}, Modes: []string{"detect"}, Lines: 20,
	}
	const seed = 7
	jobs, err := spec.Jobs(seed)
	if err != nil {
		t.Fatal(err)
	}
	local := runCampaign(t, jobs, harness.Options{Workers: 2})
	co := startProc(t, Campaign{Kind: spec.Kind(), Spec: spec, Seed: seed}, 4, nil)
	got := runCampaign(t, jobs, procOpts(co))
	if string(got) != string(local) {
		t.Errorf("proc results diverge from local:\nlocal: %.200s\nproc:  %.200s", local, got)
	}
}

// TestWorkerKillRequeue arms the worker.kill chaos point: the
// coordinator kills a leased worker right after dispatch, and the
// crash-requeue path must respawn, re-dispatch, and still produce the
// local report — without burning harness retries (Retries: 0 here, so
// any surfaced failure would fail the run).
func TestWorkerKillRequeue(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	spec := disttest.SyntheticSpec{JobCount: 8, CostMS: 2}
	const seed = 99
	jobs, err := spec.Jobs(seed)
	if err != nil {
		t.Fatal(err)
	}
	local := runCampaign(t, jobs, harness.Options{Workers: 2})

	inj, err := chaos.Parse("worker.kill:after=2,times=2", seed)
	if err != nil {
		t.Fatal(err)
	}
	co := startProc(t, Campaign{Kind: spec.Kind(), Spec: spec, Seed: seed}, 2, inj)
	opts := procOpts(co)
	opts.Retries = 0
	got := runCampaign(t, jobs, opts)
	if string(got) != string(local) {
		t.Errorf("results diverge after worker kills:\nlocal: %s\nproc:  %s", local, got)
	}
	st := co.Status()
	if st.Requeues < 2 {
		t.Errorf("Requeues = %d, want >= 2 (two injected kills)", st.Requeues)
	}
	if st.Spawns < int64(co.Width())+2 {
		t.Errorf("Spawns = %d, want >= %d (pool + respawns)", st.Spawns, co.Width()+2)
	}
	if got := inj.Injected()[chaos.WorkerKill]; got != 2 {
		t.Errorf("worker.kill fired %d times, want 2", got)
	}
}

// TestTCPBackend serves workers over TCP from in-process goroutines —
// the same Serve loop `ptguard worker -listen` runs — and checks
// byte-identity and multi-session fan-out.
func TestTCPBackend(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				Serve(conn, conn)
			}()
		}
	}()

	spec := disttest.SyntheticSpec{JobCount: 10, CostMS: 1}
	const seed = 5
	jobs, err := spec.Jobs(seed)
	if err != nil {
		t.Fatal(err)
	}
	local := runCampaign(t, jobs, harness.Options{Workers: 2})

	addr := ln.Addr().String()
	co, err := Start(Campaign{Kind: spec.Kind(), Spec: spec, Seed: seed},
		Options{Connect: []string{addr, addr, addr}})
	if err != nil {
		t.Fatalf("Start tcp: %v", err)
	}
	defer co.Close()
	if co.Backend() != "tcp" || co.Width() != 3 {
		t.Fatalf("Backend/Width = %s/%d, want tcp/3", co.Backend(), co.Width())
	}
	opts := procOpts(co)
	opts.Backend = "tcp"
	got := runCampaign(t, jobs, opts)
	if string(got) != string(local) {
		t.Errorf("tcp results diverge from local:\nlocal: %s\ntcp:   %s", local, got)
	}
}

// TestJournalResumeAcrossBackends writes a journal with a local run,
// drops its tail records, and resumes under the proc backend: the
// replayed-plus-reexecuted report must be byte-identical, proving the
// journal (and its backend-invariant fingerprint) transfers between
// execution backends.
func TestJournalResumeAcrossBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	spec := harness.CorrectionSpec{Lines: 10, Probs: []float64{1.0 / 128, 1.0 / 192, 1.0 / 256}}
	const seed = 11
	jobs, err := spec.Jobs(seed)
	if err != nil {
		t.Fatal(err)
	}
	fp := harness.Fingerprint("resume-test", seed, spec)
	journal := t.TempDir() + "/journal.jsonl"

	localOpts := harness.Options{Workers: 2, JournalPath: journal, Fingerprint: fp}
	local := runCampaign(t, jobs, localOpts)

	// Drop the last record so the resumed run must re-execute one job.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("journal too short to truncate: %d lines", len(lines))
	}
	trunc := strings.Join(lines[:len(lines)-1], "\n") + "\n"
	if err := os.WriteFile(journal, []byte(trunc), 0o644); err != nil {
		t.Fatal(err)
	}

	co := startProc(t, Campaign{Kind: spec.Kind(), Spec: spec, Seed: seed}, 2, nil)
	opts := procOpts(co)
	opts.JournalPath = journal
	opts.Fingerprint = fp
	got := runCampaign(t, jobs, opts)
	if string(got) != string(local) {
		t.Errorf("resumed proc results diverge from local:\nlocal: %s\nproc:  %s", local, got)
	}
	if st := co.Status(); st.Completed != 1 {
		t.Errorf("proc resume executed %d jobs, want 1 (rest from journal)", st.Completed)
	}
}

// TestExecutorRequiredForRemoteBackends pins the harness-side guard.
func TestExecutorRequiredForRemoteBackends(t *testing.T) {
	jobs, err := disttest.SyntheticSpec{JobCount: 1, CostMS: 1}.Jobs(1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = harness.Run(context.Background(), jobs, harness.Options{Backend: "proc"})
	if err == nil || !strings.Contains(err.Error(), "requires an Executor") {
		t.Fatalf("Run without Executor: err = %v", err)
	}
}
