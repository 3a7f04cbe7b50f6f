package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"ptguard/internal/chaos"
	"ptguard/internal/dist"
	"ptguard/internal/harness"
	"ptguard/internal/obs"
	"ptguard/internal/report"
	"ptguard/internal/stats"
)

// soakCmd is the standing proof that the harness's checkpoint/resume is
// exact under faults: it loops a deterministic correction campaign,
// interleaving chaos-injected legs (process kills, torn journal writes,
// fsync failures, disk-full, worker panics, hung jobs — the full
// internal/chaos catalog) and deliberate mid-file journal corruption with
// resumed legs, and asserts that the final merged report is byte-identical
// to the same-seed uninterrupted run.
//
// Each disrupted leg runs as a child process (this binary re-executed as
// `ptguard soak -child`), so an injected kill is a real process death, not
// a simulation of one. The parent resumes the journal until a leg runs
// clean, then compares its report bytes against the in-process reference.
// Any divergence is a durability bug and exits non-zero.
func soakCmd(fs *flag.FlagSet) func() error {
	// Every leg retries a failed job twice; soak has no -retries flag.
	cfg := soakConfig{camp: (&campaignFlags{seed: 42, timeout: 15 * time.Second, retries: 2}).bind(fs)}
	format := formatFlag(fs)
	debugAddr := fs.String("debug-addr", "", debugAddrHelp)
	rounds := fs.Int("rounds", 1, "soak rounds (each cycles every selected fault point)")
	fs.IntVar(&cfg.lines, "lines", 40, "correction campaign: faulty lines per probability")
	fs.IntVar(&cfg.jobs, "jobs", 12, "correction campaign: number of flip-probability grid points")
	faults := fs.String("faults", "all",
		fmt.Sprintf("comma-separated fault points to cycle, or \"all\" (catalog: %v)", chaos.Points()))
	maxLegs := fs.Int("max-legs", 6, "disrupted legs per fault point before the final clean leg")
	fs.DurationVar(&cfg.backoff, "retry-backoff", 50*time.Millisecond, "base retry backoff (deterministic jitter)")
	fs.DurationVar(&cfg.drain, "drain-grace", 2*time.Second, "grace for in-flight jobs on SIGINT/SIGTERM")
	keep := fs.Bool("keep", false, "keep the journal artifact directory")
	dirFlag := fs.String("dir", "", "journal artifact directory (default: a temp dir)")

	// Child-leg mode (internal; the parent re-executes itself with these).
	child := fs.Bool("child", false, "internal: run one campaign leg under -chaos and print the report")
	chaosSpec := fs.String("chaos", "", "internal: child chaos schedule spec")
	chaosSeed := fs.Uint64("chaos-seed", 0, "internal: child chaos schedule seed")

	return func() error {
		if *child {
			return cfg.runChildLeg(*chaosSpec, *chaosSeed)
		}
		points, err := selectPoints(*faults)
		if err != nil {
			return err
		}
		dir := *dirFlag
		if dir == "" {
			if dir, err = os.MkdirTemp("", "ptguard-soak-*"); err != nil {
				return err
			}
		} else if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if *keep {
			defer fmt.Fprintf(os.Stderr, "ptguard soak: artifacts kept in %s\n", dir)
		} else {
			defer os.RemoveAll(dir)
		}

		status := &soakStatus{}
		srv, err := serveDebug(*debugAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		if srv != nil {
			obs.PublishFunc("ptguard.soak", func() any { return status.snapshot() })
		}

		// The uninterrupted same-seed reference: unjournaled, chaos-free
		// and always in-process, so a -backend=proc soak also proves
		// cross-backend byte-identity. Its context also stops the loop: the
		// first SIGINT/SIGTERM schedules no new legs (in-flight children
		// drain via their own handlers).
		r, err := cfg.leg("", nil)
		if err != nil {
			return err
		}
		defer r.close()
		r.dist = &dist.Flags{}
		ref, err := cfg.report(r)
		if err != nil {
			return fmt.Errorf("reference run: %w", err)
		}
		ctx := r.ctx

		self, err := os.Executable()
		if err != nil {
			return err
		}
		tbl := report.New(
			fmt.Sprintf("Crash-safe soak — resumed report vs uninterrupted run (%d jobs, %d lines, seed %d)",
				cfg.jobs, cfg.lines, cfg.camp.seed),
			"round", "fault point", "schedule", "legs", "kills", "corrupted", "verdict")
		failures := 0
		for round := 1; round <= *rounds && ctx.Err() == nil; round++ {
			for _, p := range points {
				if ctx.Err() != nil {
					break
				}
				res, err := cfg.runFaultCycle(ctx, self, dir, round, p, *maxLegs)
				if err != nil {
					return fmt.Errorf("round %d, %s: %w", round, p, err)
				}
				verdict := fmt.Sprintf("byte-identical (%d bytes)", len(res.out))
				if !bytes.Equal(res.out, ref) {
					verdict = "MISMATCH"
					failures++
					status.mismatches.Add(1)
					if !cfg.camp.quiet {
						fmt.Fprintf(os.Stderr, "ptguard soak: round %d %s: report diverged:\n%s",
							round, p, firstDiff(ref, res.out))
					}
				} else {
					status.matches.Add(1)
				}
				status.legs.Add(int64(res.legs))
				status.kills.Add(int64(res.kills))
				status.corruptions.Add(int64(res.corrupted))
				tbl.AddRow(report.I(round), string(p), res.schedule, report.I(res.legs),
					report.I(res.kills), report.I(res.corrupted), verdict)
			}
			status.rounds.Add(1)
		}
		if err := report.Emit(os.Stdout, tbl, *format); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("soak interrupted: %w", err)
		}
		if failures > 0 {
			return fmt.Errorf("%d fault cycle(s) produced a report that was not byte-identical", failures)
		}
		return nil
	}
}

// soakConfig is everything a leg (parent reference or child) needs to
// build the identical campaign. The campaign group's dist flags select
// the backend of the disrupted legs; a worker.kill schedule is absorbed by
// the coordinator's crash-requeue rather than killing the leg.
type soakConfig struct {
	camp           *campaignFlags
	lines, jobs    int
	backoff, drain time.Duration
}

// spec builds the correction campaign: a geometric-ish grid of flip
// probabilities, dense enough that kills land mid-campaign.
func (c soakConfig) spec() harness.CorrectionSpec {
	probs := make([]float64, c.jobs)
	for i := range probs {
		probs[i] = 1.0 / float64(64*(i+2))
	}
	return harness.CorrectionSpec{Lines: c.lines, Probs: probs}
}

// leg opens one campaign leg; only the journal and the chaos schedule
// differ between legs.
func (c soakConfig) leg(journal string, inj *chaos.Injector) (*campaignRun, error) {
	camp := *c.camp
	camp.journal = journal
	r, err := camp.open("soak", c.spec(), "")
	if err != nil {
		return nil, err
	}
	r.opts.Backoff, r.opts.DrainGrace, r.opts.Chaos = c.backoff, c.drain, inj
	return r, nil
}

// report runs the leg and renders the canonical report bytes every leg is
// compared by.
func (c soakConfig) report(r *campaignRun) ([]byte, error) {
	out, err := r.run(c.spec())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := report.EmitAll(&buf, out.Tables, report.FormatTable); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// runChildLeg is one campaign leg in a child process: resume the journal,
// run under the given chaos schedule, print the report to stdout. An
// injected proc.kill or short-write crash exits with chaos.KillExitCode
// from inside the harness; every other failure exits 1 via main.
func (c soakConfig) runChildLeg(spec string, chaosSeed uint64) error {
	if c.camp.journal == "" {
		return errors.New("-child requires -journal")
	}
	inj, err := chaos.Parse(spec, chaosSeed)
	if err != nil {
		return err
	}
	r, err := c.leg(c.camp.journal, inj)
	if err != nil {
		return err
	}
	defer r.close()
	out, err := c.report(r)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(out)
	return err
}

// cycleResult summarises one (round, fault point) kill/corrupt/resume
// cycle.
type cycleResult struct {
	out       []byte
	schedule  string
	legs      int
	kills     int
	corrupted int
}

// runFaultCycle drives one fault point: disrupted legs under a
// deterministic schedule (with one mid-file journal corruption after the
// first leg), resumed until a leg runs clean — chaos is dropped after
// maxLegs so the cycle always terminates — and returns the clean leg's
// report bytes.
func (c soakConfig) runFaultCycle(ctx context.Context, self, dir string, round int, p chaos.Point, maxLegs int) (cycleResult, error) {
	seed := c.camp.seed
	journalPath := filepath.Join(dir,
		fmt.Sprintf("round%d-%s.jsonl", round, strings.ReplaceAll(string(p), ".", "-")))
	// The firing position walks the campaign deterministically with the
	// round, so successive rounds fault different operations.
	after := 1 + int(stats.DeriveSeed(seed, fmt.Sprintf("soak/%d/%s", round, p))%uint64(c.jobs))
	schedule := fmt.Sprintf("%s:after=%d", p, after)
	chaosSeed := stats.DeriveSeed(seed, fmt.Sprintf("soak-chaos/%d/%s", round, p))

	res := cycleResult{schedule: schedule}
	for leg := 1; ; leg++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		spec := schedule
		if leg > maxLegs {
			spec = "" // final clean leg: always converges
		}
		res.legs++
		cmd := exec.CommandContext(ctx, self, "soak",
			"-child",
			"-journal", journalPath,
			"-chaos", spec,
			"-chaos-seed", fmt.Sprint(chaosSeed),
			"-seed", fmt.Sprint(seed),
			"-lines", fmt.Sprint(c.lines),
			"-jobs", fmt.Sprint(c.jobs),
			"-workers", fmt.Sprint(c.camp.workers),
			"-timeout", c.camp.timeout.String(),
			"-retry-backoff", c.backoff.String(),
			"-drain-grace", c.drain.String(),
			"-quiet=true",
			"-backend", c.camp.dist.Backend,
			"-dist-workers", fmt.Sprint(c.camp.dist.Workers),
			"-connect", c.camp.dist.Connect,
		)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if err == nil {
			res.out = stdout.Bytes()
			return res, nil
		}
		var xerr *exec.ExitError
		if !errors.As(err, &xerr) {
			return res, fmt.Errorf("leg %d: %w", leg, err)
		}
		code := xerr.ExitCode()
		if code == chaos.KillExitCode {
			res.kills++
		}
		if !c.camp.quiet {
			fmt.Fprintf(os.Stderr, "ptguard soak: round %d %s leg %d: exit %d (%s), resuming\n",
				round, p, leg, code, strings.TrimSpace(firstLine(stderr.String())))
		}
		if leg > maxLegs {
			return res, fmt.Errorf("clean leg failed (exit %d): %s", code, stderr.String())
		}
		// After the first disrupted leg, corrupt the journal mid-file once:
		// the resumed leg must quarantine the record and re-run its job.
		if leg == 1 && corruptJournal(journalPath, seed, round, p) {
			res.corrupted++
		}
	}
}

// corruptJournal deterministically flips one byte inside a middle record
// of the journal, if it has enough records to corrupt. Reports whether a
// flip happened.
func corruptJournal(path string, seed uint64, round int, p chaos.Point) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	lines := bytes.Split(data, []byte("\n"))
	// Candidate record lines: everything after the header, non-empty.
	var idx []int
	for i := 1; i < len(lines); i++ {
		if len(lines[i]) > 8 {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return false
	}
	h := stats.DeriveSeed(seed, fmt.Sprintf("soak-corrupt/%d/%s", round, p))
	line := lines[idx[h%uint64(len(idx))]]
	line[len(line)/2] ^= 0x55
	return os.WriteFile(path, bytes.Join(lines, []byte("\n")), 0o644) == nil
}

// selectPoints parses the -faults flag against the chaos catalog.
func selectPoints(csv string) ([]chaos.Point, error) {
	if strings.TrimSpace(csv) == "" || csv == "all" {
		return chaos.Points(), nil
	}
	catalog := make(map[chaos.Point]bool)
	for _, p := range chaos.Points() {
		catalog[p] = true
	}
	var out []chaos.Point
	for _, name := range splitCSV(csv) {
		p := chaos.Point(name)
		if !catalog[p] {
			return nil, fmt.Errorf("unknown fault point %q (catalog: %v)", name, chaos.Points())
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, errors.New("-faults selected no fault points")
	}
	return out, nil
}

// soakStatus is the live counter set published on -debug-addr.
type soakStatus struct {
	rounds, legs, kills, corruptions, matches, mismatches atomic.Int64
}

func (s *soakStatus) snapshot() map[string]int64 {
	return map[string]int64{
		"rounds":      s.rounds.Load(),
		"legs":        s.legs.Load(),
		"kills":       s.kills.Load(),
		"corruptions": s.corruptions.Load(),
		"matches":     s.matches.Load(),
		"mismatches":  s.mismatches.Load(),
	}
}

// firstDiff renders the first divergent line of two reports.
func firstDiff(want, got []byte) string {
	w := strings.Split(string(want), "\n")
	g := strings.Split(string(got), "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s\n", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("length differs: want %d lines, got %d\n", len(w), len(g))
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}
