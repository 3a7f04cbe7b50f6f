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
	"ptguard/internal/report"
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

// runCampaign expands one campaign into jobs, runs them through the
// harness — sharded over a fresh coordinator when -backend selects proc or
// tcp — and renders the results, in job order, into tables. kind names the
// spec to the workers, which expand the identical job set from (kind,
// spec, seed).
func runCampaign[R any](r *campaignRun, kind string, spec any,
	jobs func(uint64) ([]harness.Job[R], error),
	render func([]R) ([]*report.Table, error),
) ([]*report.Table, error) {
	js, err := jobs(r.seed)
	if err != nil {
		return nil, err
	}
	opts := r.opts
	co, err := r.dist.Start(dist.Campaign{Kind: kind, Spec: spec, Seed: r.seed}, &opts, opts.Chaos)
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
	rep, err := harness.Run(r.ctx, js, opts)
	if err != nil {
		return nil, err
	}
	results, err := rep.Results()
	if err != nil {
		return nil, err
	}
	return render(results)
}

// oneTable adapts a single-table aggregator to runCampaign's render.
func oneTable(t *report.Table, err error) ([]*report.Table, error) {
	return []*report.Table{t}, err
}

// labelledRun is one run's observability data under its series/track
// label.
type labelledRun struct {
	label string
	rm    *obs.RunMetrics
}

// writeObsOutputs merges labelled runs into the -metrics-out time series and
// the -trace-out Chrome trace, one series/track per run.
func (o *obsFlags) writeObsOutputs(runs []labelledRun) error {
	var points []obs.SeriesPoint
	var tracks []obs.TraceTrack
	for _, r := range runs {
		if r.rm == nil {
			continue
		}
		for _, p := range r.rm.Series {
			p.Job = r.label
			points = append(points, p)
		}
		if len(r.rm.Trace) > 0 {
			tracks = append(tracks, obs.TraceTrack{Name: r.label, Events: r.rm.Trace})
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
