// End-to-end CLI test: builds cmd/ptguard once and runs every subcommand
// with small parameters, requiring stdout byte-identical to the golden in
// testdata/cli/. Skipped under -short (it compiles the binary).
//
// The goldens were captured from the per-tool binaries that preceded the
// subcommands, and each case keeps that invocation's test name. The
// deleted ptguard-slowdown, -multicore and -ablation binaries map onto
// their `ptguard sweep -sections ...` equivalents. The deleted `correct`
// and `latency` subcommands have no case of their own: Fig. 9 and Fig. 7
// are the sweep's correction section and its slowdown section over
// several MAC latencies, whose cases reproduce the deleted goldens' rows.
package ptguard

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// update rewrites the goldens instead of comparing against them:
//
//	go test -run TestCommandLineTools -update .
var update = flag.Bool("update", false, "rewrite testdata/cli/*.golden from the current ptguard binary")

func TestCommandLineTools(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the ptguard binary; run without -short")
	}
	bin := filepath.Join(t.TempDir(), "ptguard")
	build := exec.Command("go", "build", "-o", bin, "./cmd/ptguard")
	build.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/ptguard: %v\n%s", err, out)
	}
	// rewritten records the goldens -update has written in this run: a
	// golden shared by several cases is written by the first and compared
	// by the rest, so the determinism cases still check under -update.
	rewritten := map[string]bool{}
	// matchGolden runs `ptguard args...` and requires its stdout to equal
	// the named golden byte for byte.
	matchGolden := func(t *testing.T, name string, args ...string) {
		t.Helper()
		out, err := exec.Command(bin, args...).Output()
		if err != nil {
			t.Fatalf("ptguard %v: %v", args, err)
		}
		path := filepath.Join("testdata", "cli", name+".golden")
		if *update && !rewritten[name] {
			if err := os.WriteFile(path, out, 0o644); err != nil {
				t.Fatal(err)
			}
			rewritten[name] = true
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, want) {
			t.Errorf("ptguard %v: stdout differs from testdata/cli/%s.golden:\n--- got\n%s\n--- want\n%s", args, name, out, want)
		}
	}

	sweepCorrection20 := []string{"sweep", "-sections", "correction", "-correction-lines", "20",
		"-format", "csv", "-quiet"}
	tests := []struct {
		name, golden string
		args         []string
	}{
		{"ptguard-report-table=storage", "report-storage", []string{"report", "-table=storage"}},
		{"ptguard-report", "report-all", []string{"report"}},
		{"ptguard-security", "security", []string{"security"}},
		{"ptguard-profile-processes_8", "profile-8", []string{"profile", "-processes", "8"}},
		// Fig. 8 at its documented scale (623 processes, EXPERIMENTS.md).
		// Each process returns its frames before the next is built, so a
		// frame leaked or freed twice in teardown moves these numbers.
		{"ptguard-profile", "profile-623", []string{"profile"}},
		{"ptguard-sweep-correction_lines_40", "sweep-correction-40",
			[]string{"sweep", "-sections", "correction", "-correction-lines", "40", "-quiet"}},
		// Fig. 9's headline at its documented scale (EXPERIMENTS.md).
		{"ptguard-sweep-correction_lines_2000", "sweep-correction-2000",
			[]string{"sweep", "-sections", "correction", "-correction-lines", "2000", "-quiet"}},
		{"ptguard-attack", "attack", []string{"attack"}},
		{"ptguard-attack-compare_-trials_40", "attack-compare-40", []string{"attack", "-compare", "-trials", "40"}},
		{"ptguard-slowdown-warmup_2000_-instructions_4000", "slowdown-2000-4000",
			[]string{"sweep", "-sections", "slowdown", "-warmup", "2000", "-instructions", "4000", "-quiet"}},
		{"ptguard-slowdown-warmup_2000_-instructions_4000_-csv", "slowdown-2000-4000-csv",
			[]string{"sweep", "-sections", "slowdown", "-warmup", "2000", "-instructions", "4000", "-quiet", "-format", "csv"}},
		{"ptguard-sweep-fig7_warmup_2000_instructions_4000_mac-latencies_5,10", "sweep-fig7-2000-4000",
			[]string{"sweep", "-sections", "slowdown", "-warmup", "2000", "-instructions", "4000",
				"-mac-latencies", "5,10", "-quiet"}},
		{"ptguard-multicore-warmup_1000_-instructions_2000_-same_1_-mix_1", "multicore-1-1",
			[]string{"sweep", "-sections", "multicore", "-mc-warmup", "1000", "-mc-instructions", "2000",
				"-same", "1", "-mix", "1", "-quiet"}},
		{"ptguard-trace-instructions_30000_-trials_30", "trace-30", []string{"trace", "-instructions", "30000", "-trials", "30"}},
		{"ptguard-ablation-lines_30", "ablation-30", []string{"sweep", "-sections", "ablation", "-ablation-lines", "30", "-quiet"}},
		{"ptguard-ablation-lines_30_-csv", "ablation-30-csv",
			[]string{"sweep", "-sections", "ablation", "-ablation-lines", "30", "-quiet", "-format", "csv"}},
		{"ptguard-ablation-lines_30_-json", "ablation-30-json",
			[]string{"sweep", "-sections", "ablation", "-ablation-lines", "30", "-quiet", "-format", "json"}},
		{"ptguard-sweep-sections_slowdown_-workloads_leela,povray_-warmup_1000_-instructions_2000_-workers_2_-quiet",
			"sweep-slowdown-leela-povray",
			[]string{"sweep", "-sections", "slowdown", "-workloads", "leela,povray",
				"-warmup", "1000", "-instructions", "2000", "-workers", "2", "-quiet"}},
		{"ptguard-sweep-sections_correction_-correction-lines_30_-format_json_-quiet", "sweep-correction-30-json",
			[]string{"sweep", "-sections", "correction", "-correction-lines", "30", "-format", "json", "-quiet"}},
		{"ptguard-mitigate-mitigations_none,trr_-patterns_classic,many-sided_-trials_1_-acts_4096_-workers_2_-quiet",
			"mitigate-none-trr",
			[]string{"mitigate", "-mitigations", "none,trr", "-patterns", "classic,many-sided",
				"-trials", "1", "-acts", "4096", "-workers", "2", "-quiet"}},
		{"ptguard-mitigate-list", "mitigate-list", []string{"mitigate", "-list"}},
		{"ptguard-security-mitigation_oracle", "security-oracle", []string{"security", "-mitigation", "oracle"}},
		{"ptguard-mitigate-mitigations_oracle_-trials_1_-acts_4096_-quiet", "mitigate-oracle",
			[]string{"mitigate", "-mitigations", "oracle", "-trials", "1", "-acts", "4096", "-quiet"}},
		{"ptguard-soak-faults_worker.panic_-lines_20_-jobs_6_-timeout_30s_-quiet", "soak-worker-panic",
			[]string{"soak", "-faults", "worker.panic", "-lines", "20", "-jobs", "6", "-timeout", "30s", "-quiet"}},
		{"ptguard-vm-tenants_4_-placements_none,both_-targets_guest,stage2_-trials_1_-pages_8_-acts_4096_-workers_2_-quiet",
			"vm-4",
			[]string{"vm", "-tenants", "4", "-placements", "none,both", "-targets", "guest,stage2",
				"-trials", "1", "-pages", "8", "-acts", "4096", "-workers", "2", "-quiet"}},
		{"ptguard-vm-list", "vm-list", []string{"vm", "-list"}},
		{"ptguard-worker-list-kinds", "worker-list-kinds", []string{"worker", "-list-kinds"}},
		// A whole campaign sharded over worker subprocesses: the binary
		// re-executes itself as `ptguard worker`.
		{"ptguard-mitigate-mitigations_none_-patterns_classic_-trials_1_-acts_4096_-quiet_-backend_proc_-dist-workers_2",
			"mitigate-proc",
			[]string{"mitigate", "-mitigations", "none", "-patterns", "classic",
				"-trials", "1", "-acts", "4096", "-quiet", "-backend", "proc", "-dist-workers", "2"}},
		// Kill-resume determinism: a soak cycle that really kills the
		// campaign mid-journal-write (short write included) and corrupts the
		// journal between legs; every verdict is byte-identical, with real
		// kills and corruptions counted.
		{"ptguard-soak_kill_resume_determinism", "soak-kill-csv",
			[]string{"soak", "-faults", "proc.kill,journal.short-write", "-lines", "20", "-jobs", "6",
				"-timeout", "30s", "-format", "csv", "-quiet"}},
		// Soak under the proc backend: the disrupted legs run on worker
		// subprocesses while the reference stays in-process. worker.kill is
		// absorbed by the coordinator's crash-requeue; proc.kill takes the
		// whole leg down.
		{"ptguard-soak_proc_backend", "soak-proc-csv",
			[]string{"soak", "-faults", "worker.kill,proc.kill", "-lines", "20", "-jobs", "6",
				"-timeout", "30s", "-backend", "proc", "-dist-workers", "2", "-format", "csv", "-quiet"}},
		// The Makefile smokes.
		{"ptguard-soak-rounds_1_-lines_20_-jobs_6_-timeout_5s_-quiet", "chaos-smoke",
			[]string{"soak", "-rounds", "1", "-lines", "20", "-jobs", "6", "-timeout", "5s", "-quiet"}},
		{"ptguard-mitigate-mitigations_none,trr,oracle_-patterns_classic,half-double_-trials_1_-acts_4096_-quiet",
			"mitigate-smoke",
			[]string{"mitigate", "-mitigations", "none,trr,oracle", "-patterns", "classic,half-double",
				"-trials", "1", "-acts", "4096", "-quiet"}},
		{"ptguard-vm-tenants_4_-placements_none,both_-targets_guest,stage2_-trials_1_-pages_8_-acts_4096_-quiet",
			"vm-smoke",
			[]string{"vm", "-tenants", "4", "-placements", "none,both", "-targets", "guest,stage2",
				"-trials", "1", "-pages", "8", "-acts", "4096", "-quiet"}},
		{"ptguard-sweep-sections_correction_-correction-lines_10_-backend_proc_-dist-workers_2_-quiet", "dist-smoke",
			[]string{"sweep", "-sections", "correction", "-correction-lines", "10",
				"-backend", "proc", "-dist-workers", "2", "-quiet"}},
		{"ptguard-sweep-sections_correction_-correction-lines_20_-format_csv_-quiet", "sweep-correction-20-csv",
			sweepCorrection20},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) { matchGolden(t, tt.golden, tt.args...) })
	}

	// mustFail runs `ptguard args...`, which must exit non-zero, under a
	// 30 s deadline: a validation regression that hangs fails here
	// instead of stalling go test until its timeout.
	mustFail := func(stderr io.Writer, args ...string) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		cmd := exec.CommandContext(ctx, bin, args...)
		cmd.Stderr = stderr
		if err := cmd.Run(); ctx.Err() != nil {
			t.Errorf("ptguard %v did not exit within 30 s", args)
		} else if err == nil {
			t.Errorf("ptguard %v exited 0", args)
		}
	}

	// Flag validation: a bad flag must exit non-zero.
	for _, args := range [][]string{
		{"report", "-table=nonsense"},
		{"soak", "-faults", "nonsense.point"},
		{"sweep", "-format", "xml"},
		{"sweep", "-sections", "slowdown", "-workloads", "leela", "-mac-latencies", "0"},
		// A negative run length fails before any job runs; the warm-up
		// was once skipped without a word.
		{"sweep", "-sections", "slowdown", "-workloads", "leela", "-warmup", "-5", "-instructions", "2000"},
		{"sweep", "-sections", "slowdown", "-workloads", "leela", "-instructions", "-5"},
		{"sweep", "-sections", "multicore", "-same", "1", "-mix", "0", "-mc-warmup", "-5", "-mc-instructions", "2000"},
		{"nonsense"},
		// Fig. 9 and Fig. 7 are sweep sections; their old subcommands are gone.
		{"correct"},
		{"latency"},
		// The mitigation matrix runs only as `ptguard mitigate`.
		{"sweep", "-sections", "mitigate"},
		// A fault model that can never flip a bit.
		{"faults", "-models", "uniform:p=0", "-lines", "5"},
	} {
		mustFail(nil, args...)
	}

	// Fail before work: an unknown sweep section, or a section whose spec
	// does not expand, fails before the valid section listed ahead of it
	// runs, so no journal is written.
	for _, args := range [][]string{
		{"sweep", "-sections", "correction,bogus", "-correction-lines", "20", "-quiet"},
		{"sweep", "-sections", "correction,ablation", "-correction-lines", "20", "-flip-prob", "NaN", "-quiet"},
	} {
		journal := filepath.Join(t.TempDir(), "sections.jsonl")
		mustFail(nil, append(args, "-journal", journal)...)
		if _, err := os.Stat(journal); !os.IsNotExist(err) {
			t.Errorf("ptguard %v left a journal behind (stat: %v)", args, err)
		}
	}
	// An invalid spec fails before any worker process starts.
	args := []string{"sweep", "-sections", "slowdown", "-workloads", "leela", "-mac-latencies", "0",
		"-backend", "proc", "-dist-workers", "2"}
	var stderr bytes.Buffer
	mustFail(&stderr, args...)
	if strings.Contains(stderr.String(), "ptguard worker:") {
		t.Errorf("ptguard %v started a worker before rejecting the spec:\n%s", args, stderr.String())
	}

	// Inter-VM kill-resume determinism: SIGKILL a journaled vm campaign
	// mid-run, resume it against the same journal, and require the
	// uninterrupted run's report. (If the first leg finishes before the
	// kill lands, the resume leg is a pure journal replay and the check
	// still holds.)
	t.Run("ptguard-vm_kill_resume_determinism", func(t *testing.T) {
		journal := filepath.Join(t.TempDir(), "resume.jsonl")
		args := []string{"vm", "-seed", "7", "-tenants", "4,6",
			"-targets", "guest,stage2", "-trials", "2", "-pages", "8",
			"-workers", "2", "-quiet", "-format", "csv", "-journal", journal}
		first := exec.Command(bin, args...)
		if err := first.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(400 * time.Millisecond)
		_ = first.Process.Kill()
		_ = first.Wait()
		matchGolden(t, "vm-seed7-csv", args...)
	})

	// Distributed-backend determinism: the sweep section sharded over
	// worker subprocesses emits the in-process report.
	t.Run("ptguard-sweep_proc_backend_determinism", func(t *testing.T) {
		matchGolden(t, "sweep-correction-20-csv", append(sweepCorrection20, "-backend", "proc", "-dist-workers", "3")...)
	})

	// Distributed kill-resume determinism: SIGKILL a journaled proc-backend
	// campaign mid-run (taking its worker subprocesses down with it),
	// resume at a different worker count, and require the in-process
	// report — the journal, not the backend, is the source of truth.
	t.Run("ptguard-faults_proc_kill_resume_determinism", func(t *testing.T) {
		journal := filepath.Join(t.TempDir(), "resume.jsonl")
		args := []string{"faults", "-seed", "7", "-models", "1bit,2bit,burst",
			"-modes", "detect,correct", "-lines", "60", "-quiet", "-format", "csv", "-journal", journal,
			"-backend", "proc"}
		first := exec.Command(bin, append(args, "-dist-workers", "2")...)
		if err := first.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(600 * time.Millisecond)
		_ = first.Process.Kill()
		_ = first.Wait()
		matchGolden(t, "faults-seed7-csv", append(args, "-dist-workers", "4")...)
	})

	// Observability outputs: one sweep point with -metrics-out/-trace-out
	// must yield a JSONL time series with at least two snapshots per run
	// and a parseable Chrome trace_event document, and leave stdout as is.
	t.Run("ptguard-sweep_obs_outputs", func(t *testing.T) {
		outDir := t.TempDir()
		metrics := filepath.Join(outDir, "metrics.jsonl")
		trace := filepath.Join(outDir, "trace.json")
		matchGolden(t, "sweep-obs", "sweep", "-sections", "slowdown", "-workloads", "leela",
			"-warmup", "1000", "-instructions", "4000", "-quiet",
			"-metrics-out", metrics, "-trace-out", trace, "-snapshot-every", "1000")

		f, err := os.Open(metrics)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		perJob := map[string]int{}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var p struct {
				Job          string            `json:"job"`
				Instructions uint64            `json:"instructions"`
				Counters     map[string]uint64 `json:"counters"`
			}
			if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
				t.Fatalf("metrics line is not JSON: %v\n%s", err, sc.Text())
			}
			if p.Counters["cpu.instructions"] == 0 {
				t.Errorf("snapshot without cpu.instructions: %s", sc.Text())
			}
			perJob[p.Job]++
		}
		if len(perJob) == 0 {
			t.Fatal("metrics file is empty")
		}
		for job, n := range perJob {
			if n < 2 {
				t.Errorf("run %q has %d snapshots, want >= 2", job, n)
			}
		}

		raw, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Ph string `json:"ph"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("trace is not Chrome trace JSON: %v", err)
		}
		var complete bool
		for _, ev := range doc.TraceEvents {
			if ev.Ph == "X" {
				complete = true
				break
			}
		}
		if !complete {
			t.Error("trace holds no complete events")
		}
	})
}
