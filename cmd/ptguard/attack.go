package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"ptguard/internal/attack"
	"ptguard/internal/core"
	"ptguard/internal/harness"
	"ptguard/internal/obs"
	"ptguard/internal/pte"
	"ptguard/internal/report"
)

// attackCmd runs the end-to-end Rowhammer exploit scenarios of §II-C /
// §IV-G against the simulated memory system — privilege escalation,
// metadata flips, the known-plaintext CTB DoS — and, with -compare, the
// detection-coverage comparison against prior defenses (§II-E, §VIII).
func attackCmd(fs *flag.FlagSet) func() error {
	seed := seedFlag(fs)
	format := formatFlag(fs)
	o := newObsFlags(fs, "")
	compare := fs.Bool("compare", false, "run the defense-coverage comparison")
	trials := fs.Int("trials", 500, "coverage trials (with -compare)")
	flips := fs.Int("max-flips", 8, "max random flips per trial (with -compare)")

	return func() error {
		srv, err := serveDebug(o.debugAddr)
		if err != nil {
			return fmt.Errorf("-debug-addr: %w", err)
		}
		defer srv.Close()
		if *compare {
			// Coverage is one monolithic call that cannot observe a context;
			// leave default signal handling so Ctrl-C still kills it.
			return runCoverage(*seed, *trials, *flips, *format)
		}
		// Drain cleanly on SIGINT/SIGTERM: finish the scenario in flight,
		// skip the rest, and still flush the observability outputs gathered
		// so far.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		var runs []harness.LabelledRun
		err = runScenarios(ctx, *seed, *format, o, &runs)
		return errors.Join(err, o.writeObsOutputs(runs))
	}
}

// runScenarios plays every scenario on a fresh world and, when an obs
// output is set, appends each world's final metrics to runs.
func runScenarios(ctx context.Context, seed uint64, format string, o *obsFlags, runs *[]harness.LabelledRun) error {
	tbl := report.New("Rowhammer exploit scenarios (end to end)",
		"scenario", "system", "exploit succeeded", "detected", "notes")

	// observe attaches a fresh observer to w when an obs output is set,
	// and returns the hook that snapshots the finished world under label.
	observe := func(w *attack.World) func(label string) {
		if !o.enabled() {
			return func(string) {}
		}
		ob := obs.New(obs.Options{TraceCapacity: o.traceCap})
		w.Observe(ob)
		return func(label string) {
			w.PublishObs(ob.Registry())
			ob.Snapshot(ob.Now(), 0)
			*runs = append(*runs, harness.LabelledRun{Label: label, Metrics: ob.RunMetrics(o.traceOut != "")})
		}
	}

	scenario := func(name string, protected bool, f func(*attack.World) (attack.Outcome, error)) error {
		system := "unprotected"
		if protected {
			system = "pt-guard"
		}
		w, err := attack.NewWorld(protected, false, seed)
		if err != nil {
			return fmt.Errorf("scenario %q (%s): building world: %w", name, system, err)
		}
		collect := observe(w)
		out, err := f(w)
		if err != nil {
			return fmt.Errorf("scenario %q (%s): %w", name, system, err)
		}
		collect(name + "/" + system)
		tbl.AddRow(name, system,
			fmt.Sprintf("%t", out.ExploitSucceeded),
			fmt.Sprintf("%t", out.Detected), out.Description)
		return nil
	}

	privesc := func(w *attack.World) (attack.Outcome, error) {
		return w.PrivilegeEscalation(attack.VictimVBase)
	}
	usBit := func(w *attack.World) (attack.Outcome, error) {
		return w.MetadataAttack(attack.VictimVBase, pte.BitUserAccessible)
	}
	nxBit := func(w *attack.World) (attack.Outcome, error) {
		return w.MetadataAttack(attack.VictimVBase, pte.BitNX)
	}
	for _, s := range []struct {
		name      string
		protected bool
		f         func(*attack.World) (attack.Outcome, error)
	}{
		{name: "privilege escalation (PFN flip)", protected: false, f: privesc},
		{name: "privilege escalation (PFN flip)", protected: true, f: privesc},
		{name: "user/supervisor flip", protected: false, f: usBit},
		{name: "user/supervisor flip", protected: true, f: usBit},
		{name: "W^X bypass (NX flip)", protected: false, f: nxBit},
		{name: "W^X bypass (NX flip)", protected: true, f: nxBit},
	} {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("interrupted: %w", err)
		}
		if err := scenario(s.name, s.protected, s.f); err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("interrupted: %w", err)
	}

	// Known-plaintext CTB DoS (§VII-B): needs a protected world.
	w, err := attack.NewWorld(true, false, seed)
	if err != nil {
		return fmt.Errorf("scenario %q: building world: %w", "known-plaintext CTB DoS", err)
	}
	collect := observe(w)
	tracked, err := w.CTBOverflowDoS(seed)
	switch {
	case errors.Is(err, core.ErrCTBFull):
		tbl.AddRow("known-plaintext CTB DoS", "pt-guard", "false", "true",
			fmt.Sprintf("CTB overflowed after %d collisions: re-key signalled", tracked))
	case err != nil:
		return fmt.Errorf("scenario %q: %w", "known-plaintext CTB DoS", err)
	default:
		tbl.AddRow("known-plaintext CTB DoS", "pt-guard", "false", "false",
			fmt.Sprintf("%d collisions tracked without overflow", tracked))
	}
	collect("known-plaintext CTB DoS/pt-guard")
	return report.Emit(os.Stdout, tbl, format)
}

func runCoverage(seed uint64, trials, flips int, format string) error {
	res, err := attack.RunCoverage(seed, trials, flips)
	if err != nil {
		return fmt.Errorf("coverage comparison (%d trials, <=%d flips): %w", trials, flips, err)
	}
	tbl := report.New(
		fmt.Sprintf("Defense coverage over %d random 1..%d-bit PTE fault patterns", res.Trials, flips),
		"defense", "outcome", "count", "rate")
	tbl.AddRow("pt-guard", "detected (must be all)", report.I(res.PTGuardDetected),
		report.Pct(100*float64(res.PTGuardDetected)/float64(res.Trials)))
	tbl.AddRow("secwalk 25-bit EDC", "missed", report.I(res.SecWalkMissed),
		report.Pct(100*float64(res.SecWalkMissed)/float64(res.Trials)))
	tbl.AddRow("secded ECC", "silent wrong data", report.I(res.SECDEDSilent),
		report.Pct(100*float64(res.SECDEDSilent)/float64(res.Trials)))
	tbl.AddRow("monotonic pointers", "pattern unprotected", report.I(res.MonotonicUnprotected),
		report.Pct(100*float64(res.MonotonicUnprotected)/float64(res.Trials)))
	return report.Emit(os.Stdout, tbl, format)
}
