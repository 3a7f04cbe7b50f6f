package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ptguard/internal/dist"
	"ptguard/internal/harness"
	"ptguard/internal/obs"
	"ptguard/internal/report"
)

// The flag groups several subcommands share, each defined once.

// seedFlag binds -seed for the subcommands that run outside the harness.
func seedFlag(fs *flag.FlagSet) *uint64 {
	return fs.Uint64("seed", 42, "random seed")
}

// formatFlag binds -format, checked at parse time so a typo fails before
// any work runs.
func formatFlag(fs *flag.FlagSet) *string {
	format := report.FormatTable
	fs.Func("format", "output format: table, csv or json (default table)", func(s string) error {
		switch s {
		case report.FormatTable, report.FormatCSV, report.FormatJSON:
			format = s
			return nil
		}
		return errors.New("want table, csv or json")
	})
	return &format
}

// campaignFlags is the execution surface of every harness campaign: the
// seed all job seeds derive from, the local pool, the checkpoint journal,
// per-job limits, progress, and the dist backend.
type campaignFlags struct {
	seed    uint64
	workers int
	journal string
	timeout time.Duration
	retries int
	quiet   bool
	dist    *dist.Flags
}

// newCampaignFlags binds the campaign group with the usual defaults.
func newCampaignFlags(fs *flag.FlagSet) *campaignFlags {
	c := (&campaignFlags{seed: 42, timeout: 10 * time.Minute, retries: 1}).bind(fs)
	fs.IntVar(&c.retries, "retries", c.retries, "re-attempts per failed or panicked job")
	return c
}

// bind registers the group on fs, taking c's fields as the defaults. It
// leaves -retries out: soak keeps its retry count fixed.
func (c *campaignFlags) bind(fs *flag.FlagSet) *campaignFlags {
	fs.Uint64Var(&c.seed, "seed", c.seed, "campaign seed (per-job seeds derive from it)")
	fs.IntVar(&c.workers, "workers", c.workers, "worker pool size (0 = GOMAXPROCS)")
	fs.StringVar(&c.journal, "journal", c.journal, "JSONL checkpoint path; resuming with the same path skips completed jobs")
	fs.DurationVar(&c.timeout, "timeout", c.timeout, "per-job wall-clock timeout (0 = none)")
	fs.BoolVar(&c.quiet, "quiet", c.quiet, "suppress the stderr progress reporter")
	c.dist = dist.AddFlags(fs)
	return c
}

// obsFlags is the observability group: per-run time series and traces,
// and the live expvar/pprof endpoint.
type obsFlags struct {
	metricsOut, traceOut string
	snapEvery, traceCap  int
	debugAddr            string
}

// newObsFlags binds the obs group. snapHelp documents -snapshot-every;
// an empty snapHelp leaves the flag out where runs snapshot only at the
// end.
func newObsFlags(fs *flag.FlagSet, snapHelp string) *obsFlags {
	o := &obsFlags{}
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write per-run time-series snapshots to this path (JSONL, or CSV when it ends in .csv)")
	fs.StringVar(&o.traceOut, "trace-out", "", "write a merged Chrome trace_event JSON to this path (open in Perfetto)")
	if snapHelp != "" {
		fs.IntVar(&o.snapEvery, "snapshot-every", 0, snapHelp)
	}
	fs.IntVar(&o.traceCap, "trace-capacity", 0, "per-run trace ring capacity (0 = default 65536)")
	fs.StringVar(&o.debugAddr, "debug-addr", "", debugAddrHelp)
	return o
}

const debugAddrHelp = "serve expvar (/debug/vars) and pprof (/debug/pprof/) on this address while running"

func (o *obsFlags) enabled() bool { return o.metricsOut != "" || o.traceOut != "" }

// spec is the harness ObsSpec the flags ask for, nil when neither output
// is set; defaultEvery stands in for a zero -snapshot-every.
func (o *obsFlags) spec(defaultEvery int) *harness.ObsSpec {
	if !o.enabled() {
		return nil
	}
	every := o.snapEvery
	if every == 0 {
		every = defaultEvery
	}
	return &harness.ObsSpec{SnapshotEvery: every, TraceCapacity: o.traceCap, IncludeTrace: o.traceOut != ""}
}

// serveDebug starts the -debug-addr endpoint when addr is set. The
// returned server is nil otherwise, and Close is nil-safe.
func serveDebug(addr string) (*obs.DebugServer, error) {
	if addr == "" {
		return nil, nil
	}
	srv, err := obs.StartDebugServer(addr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "ptguard: debug endpoint at http://%s/debug/vars\n", srv.Addr())
	return srv, nil
}

// splitCSV splits a comma-separated flag value, dropping blanks; an empty
// value yields nil.
func splitCSV(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseInts parses a comma-separated integer list.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitCSV(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
