package harness

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// counters is the shared live state between workers and the reporter.
type counters struct {
	total       int          // jobs in the campaign
	executed    atomic.Int64 // jobs run to success in this process
	failed      atomic.Int64
	retried     atomic.Int64 // individual re-attempts
	fromJournal atomic.Int64

	quarantined        atomic.Int64 // poison jobs that exhausted every attempt
	journalQuarantined atomic.Int64 // corrupt journal records rejected on load
	journalBytes       atomic.Int64 // checkpoint bytes appended this process

	mu    sync.Mutex
	jrErr error
}

// metrics reads the counters into a Metrics; Elapsed is the caller's.
func (c *counters) metrics() Metrics {
	return Metrics{
		Total:              c.total,
		Executed:           int(c.executed.Load()),
		Failed:             int(c.failed.Load()),
		Retried:            int(c.retried.Load()),
		FromJournal:        int(c.fromJournal.Load()),
		Quarantined:        int(c.quarantined.Load()),
		JournalQuarantined: int(c.journalQuarantined.Load()),
		JournalBytes:       c.journalBytes.Load(),
	}
}

func (c *counters) journalErr(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.jrErr == nil {
		c.jrErr = err
	}
}

func (c *counters) takeJournalErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jrErr
}

// LiveStatus exposes a running campaign's counters for external polling:
// the CLIs publish a Snapshot over the -debug-addr expvar endpoint. Attach
// one via Options.LiveStatus; before Run starts (or with none attached) the
// snapshot is all zeros. Safe for concurrent use.
type LiveStatus struct {
	c atomic.Pointer[counters]
}

// attach binds the status to a campaign's live counters.
func (ls *LiveStatus) attach(c *counters) {
	if ls != nil {
		ls.c.Store(c)
	}
}

// Snapshot returns the current progress numbers, with a zero Elapsed.
func (ls *LiveStatus) Snapshot() Metrics {
	if ls != nil {
		if c := ls.c.Load(); c != nil {
			return c.metrics()
		}
	}
	return Metrics{}
}

// reporter periodically writes a progress line to Options.Progress.
type reporter struct {
	quit chan struct{}
	done chan struct{}
}

// startReporter launches the progress goroutine; with a nil Progress
// writer it returns an inert reporter.
func startReporter(opts Options, c *counters) *reporter {
	r := &reporter{quit: make(chan struct{}), done: make(chan struct{})}
	if opts.Progress == nil {
		close(r.done)
		return r
	}
	every := opts.ProgressEvery
	if every <= 0 {
		every = 2 * time.Second
	}
	start := time.Now()
	go func() {
		defer close(r.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-r.quit:
				return
			case <-tick.C:
				executed := c.executed.Load()
				failed := c.failed.Load()
				retried := c.retried.Load()
				journaled := c.fromJournal.Load()
				finished := executed + failed + journaled
				elapsed := time.Since(start)
				rate := 0.0
				if elapsed > 0 {
					rate = float64(executed) / elapsed.Seconds()
				}
				eta := etaString(int64(c.total)-finished, rate)
				fmt.Fprintf(opts.Progress,
					"harness: %d/%d done (%d from journal), %d failed, %d retried, %.2f jobs/s, ETA %s\n",
					finished, c.total, journaled, failed, retried, rate, eta)
			}
		}
	}()
	return r
}

// maxETA caps the ETA the reporter will print: past a year the number is
// noise, and the float64->Duration conversion below would overflow into a
// negative duration anyway.
const maxETA = 365 * 24 * time.Hour

// etaString renders the time left at the current executed-job rate.
// Replayed jobs are already excluded from rate by the caller, so a
// resume that restored everything reports "0s" (remaining <= 0) rather
// than an ETA extrapolated from work it never did. A zero, non-finite, or
// vanishing rate yields "?" instead of a divide-by-zero Inf or an
// int64-overflowed negative duration.
func etaString(remaining int64, rate float64) string {
	if remaining <= 0 {
		return "0s"
	}
	if math.IsNaN(rate) || rate <= 0 {
		return "?"
	}
	secs := float64(remaining) / rate
	if math.IsNaN(secs) || secs > maxETA.Seconds() {
		return "?"
	}
	return time.Duration(secs * float64(time.Second)).Round(time.Second).String()
}

// stop terminates the reporter and waits for its goroutine to exit, so no
// progress line can interleave with the final summary.
func (r *reporter) stop() {
	select {
	case <-r.done:
		return
	default:
	}
	close(r.quit)
	<-r.done
}
