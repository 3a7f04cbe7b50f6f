package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"ptguard/internal/dist"
	"ptguard/internal/harness"
	"ptguard/internal/obs"
)

// campaignRun is what one invocation's campaigns share: harness options
// carrying the journal fingerprint, the backend, and a context that
// SIGINT/SIGTERM cancel (the journal keeps what finished).
type campaignRun struct {
	ctx   context.Context
	opts  harness.Options
	seed  uint64
	dist  *dist.Flags
	close func()
}

// open starts an invocation. The fingerprint digests (kind, seed, spec)
// and no execution knob, so a journal resumes under any backend and pool
// width; debugAddr serves live campaign progress.
func (c *campaignFlags) open(kind string, spec any, debugAddr string) (*campaignRun, error) {
	opts := harness.Options{
		Workers:     c.workers,
		Timeout:     c.timeout,
		Retries:     c.retries,
		JournalPath: c.journal,
		Fingerprint: harness.Fingerprint(kind, c.seed, spec),
	}
	if !c.quiet {
		opts.Progress = os.Stderr
	}
	srv, err := serveDebug(debugAddr)
	if err != nil {
		return nil, err
	}
	if srv != nil {
		live := &harness.LiveStatus{}
		opts.LiveStatus = live
		obs.PublishFunc("ptguard.campaign", func() any { return live.Snapshot() })
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	return &campaignRun{ctx: ctx, opts: opts, seed: c.seed, dist: c.dist, close: func() {
		stop()
		srv.Close()
	}}, nil
}

// run runs one campaign through the harness — sharded over a fresh
// coordinator when -backend selects proc or tcp, whose workers expand the
// identical job set from (spec.Kind(), spec, seed) — and returns its
// rendered report. The spec is expanded before any worker starts, so an
// invalid one fails first.
func (r *campaignRun) run(spec harness.Spec) (*harness.Output, error) {
	plan, err := harness.Prepare(spec, r.seed)
	if err != nil {
		return nil, err
	}
	return r.runPlan(spec, plan)
}

// runPlan is run for a spec already expanded into plan by
// harness.Prepare(spec, seed).
func (r *campaignRun) runPlan(spec harness.Spec, plan harness.Plan) (*harness.Output, error) {
	opts := r.opts
	co, err := r.dist.Start(dist.Campaign{Kind: spec.Kind(), Spec: spec, Seed: r.seed}, &opts)
	if err != nil {
		return nil, err
	}
	if co != nil {
		dist.Publish(co)
		defer func() {
			dist.Publish(nil)
			co.Close()
		}()
	}
	return plan(r.ctx, opts)
}

// writeObsOutputs merges labelled runs into the -metrics-out time series and
// the -trace-out Chrome trace, one series/track per run.
func (o *obsFlags) writeObsOutputs(runs []harness.LabelledRun) error {
	var points []obs.SeriesPoint
	var tracks []obs.TraceTrack
	for _, r := range runs {
		if r.Metrics == nil {
			continue
		}
		for _, p := range r.Metrics.Series {
			p.Job = r.Label
			points = append(points, p)
		}
		if len(r.Metrics.Trace) > 0 {
			tracks = append(tracks, obs.TraceTrack{Name: r.Label, Events: r.Metrics.Trace})
		}
	}
	if o.metricsOut != "" {
		err := writeFile(o.metricsOut, func(f *os.File) error {
			if strings.HasSuffix(o.metricsOut, ".csv") {
				return obs.WriteSeriesCSV(f, points)
			}
			return obs.WriteSeriesJSONL(f, points)
		})
		if err != nil {
			return fmt.Errorf("-metrics-out: %w", err)
		}
	}
	if o.traceOut != "" {
		if err := writeFile(o.traceOut, func(f *os.File) error { return obs.WriteChromeTrace(f, tracks) }); err != nil {
			return fmt.Errorf("-trace-out: %w", err)
		}
	}
	return nil
}

// writeFile creates path, fills it with write, and reports the first error
// of the write or the close.
func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
