package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	scale    float64
	out      string
	// minJobs is the fewest jobs the timed phase runs, so that job_p90_ms
	// always has ten samples beyond it.
	minJobs int
	// setups is how many set-ups are timed; setup_s is their median.
	setups int
}

// Jobs whose simulated results feed sim_digest and the per-layer counts.
// A fixed prefix makes both repeat exactly for one seed, however many jobs
// the timed phase gets through.
const digestJobs = 25

// recheckEvery selects the jobs recomputed by a second path after the timed
// phase.
const recheckEvery = 25

// bench is one workload, set up and ready to run jobs.
type bench interface {
	// cycle is the number of jobs one runCycle call runs. Each workload's
	// jobs repeat their shapes (profiles, flip probabilities) with this
	// period and the cycle is odd, so a phase made of whole cycles holds
	// every shape equally often and its median falls inside one shape.
	cycle() int
	// warmup runs untimed jobs so that lazy set-up is done before timing.
	warmup() error
	// runCycle runs jobs c*cycle() to (c+1)*cycle()-1, one sample each.
	runCycle(c int) ([]sample, error)
	// recheck recomputes job i by a second path and compares the result.
	recheck(i int, s sample) error
	close() error
}

// sample is one job: its wall time, its simulated result as JSON, and the
// error of a job that failed or whose output check failed.
type sample struct {
	elapsed time.Duration
	result  []byte
	err     error
}

// phase is one closed-loop measurement.
type phase struct {
	samples []sample
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	gcs     uint32
	pause   time.Duration
}

// report is the JSON summary printed as the last line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// digest is the sim_digest of the run's first digestJobs jobs.
	digest string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run sets the workload up, measures it and checks its outputs. Untraced,
// it reports the end-to-end metrics; traced, the per-layer metrics.
// Human-readable lines go to w.
func run(cfg config, traced bool, w io.Writer) (*report, error) {
	open, ok := lookup(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (known: %v)", cfg.workload, workloadNames())
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	rep := &report{Correct: true, Metrics: map[string]metric{}}
	var (
		jobs int
		err  error
	)
	if traced {
		jobs, err = runTraced(cfg, open, rep, w)
	} else {
		jobs, err = runUntraced(cfg, open, rep, w)
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s sim_digest %s\n", cfg.workload, rep.digest)
	rep.print(w, cfg.workload, jobs)
	return rep, nil
}

// runUntraced measures the end-to-end metrics and rechecks a sample of the
// jobs. It returns the number of jobs timed.
func runUntraced(cfg config, open opener, rep *report, w io.Writer) (int, error) {
	p, err := startProber()
	if err != nil {
		return 0, err
	}
	ph, setup, err := measureUntraced(cfg, open, p, w)
	if cerr := p.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	rep.count(w, ph.samples)
	rep.digest = digest(ph.samples, digestJobs)
	kernel := p.median()
	fmt.Fprintf(w, "%s reference kernel median %v (calibrated %v)\n", cfg.workload, kernel, refProbe)
	endToEnd(rep, scaleBy(setup, float64(refProbe)/float64(kernel)), ph, rusage().Maxrss)
	return len(ph.samples), nil
}

// measureUntraced sets the workload up, runs the timed phase with the
// reference kernel timed before set-up and after every cycle, and runs the
// rechecks.
func measureUntraced(cfg config, open opener, p *prober, w io.Writer) (phase, time.Duration, error) {
	if _, err := p.measure(); err != nil {
		return phase{}, 0, err
	}
	b, setup, err := setUp(cfg, open)
	if err != nil {
		return phase{}, 0, err
	}
	ph, err := runPhase(b, cfg.seconds, cfg.minJobs, p)
	if err == nil {
		recheck(b, ph.samples, w)
	}
	if cerr := b.close(); err == nil {
		err = cerr
	}
	return ph, setup, err
}

// runTraced measures a third of the run untraced, then reruns the same jobs
// on a traced instance with spans, counts and CPU profiles, and fills in
// the per-layer metrics. The two phases' simulated results must match. It
// returns the number of traced jobs.
func runTraced(cfg config, open opener, rep *report, w io.Writer) (int, error) {
	cfg.setups = 1
	b, _, err := setUp(cfg, open)
	if err != nil {
		return 0, err
	}
	plain, err := runPhase(b, cfg.seconds/3, 0, nil)
	if cerr := b.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	dir := filepath.Join(cfg.out, "trace", fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	tr := newTracer(dir)
	tb, err := open(cfg, tr)
	if err != nil {
		return 0, err
	}
	stop, err := startProfile(filepath.Join(dir, "main.pprof"))
	if err != nil {
		tb.close()
		return 0, err
	}
	ph, err := runPhase(tb, 2*cfg.seconds/3, 0, nil)
	if perr := stop(); err == nil {
		err = perr
	}
	if cerr := tb.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	rep.count(w, plain.samples)
	rep.count(w, ph.samples)
	n := min(digestJobs, len(plain.samples), len(ph.samples))
	rep.digest = digest(ph.samples, n)
	if untraced := digest(plain.samples, n); untraced != rep.digest {
		rep.Correct = false
		fmt.Fprintf(w, "%s: traced sim_digest %s differs from untraced %s\n", cfg.workload, rep.digest, untraced)
	}
	busy, err := foldProfiles(dir)
	if err != nil {
		return 0, err
	}
	if err := tr.write(); err != nil {
		return 0, err
	}
	layerMetrics(rep, tr, busy, plain, ph)
	fmt.Fprintf(w, "%s trace written to %s\n", cfg.workload, dir)
	return len(ph.samples), nil
}

// setUp opens the workload and warms it up cfg.setups times, keeping the
// last instance, and returns the median set-up time.
func setUp(cfg config, open opener) (bench, time.Duration, error) {
	var (
		b     bench
		times []float64
	)
	for i := 0; i < max(cfg.setups, 1); i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, 0, err
			}
		}
		start := time.Now()
		var err error
		if b, err = open(cfg, nil); err == nil {
			if err = b.warmup(); err != nil {
				b.close()
			}
		}
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	med, _ := quantile(times, 0.5)
	return b, time.Duration(med * float64(time.Second)), nil
}

// runPhase runs whole cycles until at least seconds have passed and at
// least minJobs jobs have run. With a prober it times the reference kernel
// after every cycle and scales the cycle's job, wall and CPU times by
// refProbe over that kernel time; kernel time is not part of the phase.
func runPhase(b bench, seconds float64, minJobs int, p *prober) (phase, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var (
		ph  phase
		raw time.Duration
	)
	for c := 0; ; c++ {
		start, cpu0 := time.Now(), cpuTime()
		s, err := b.runCycle(c)
		if err != nil {
			return ph, err
		}
		wall, cpu := time.Since(start), cpuTime()-cpu0
		raw += wall
		f := 1.0
		if p != nil {
			kernel, err := p.measure()
			if err != nil {
				return ph, err
			}
			f = float64(refProbe) / float64(kernel)
		}
		for i := range s {
			s[i].elapsed = scaleBy(s[i].elapsed, f)
		}
		ph.samples = append(ph.samples, s...)
		ph.wall += scaleBy(wall, f)
		ph.cpu += scaleBy(cpu, f)
		if raw.Seconds() >= seconds && len(ph.samples) >= minJobs {
			break
		}
	}
	runtime.ReadMemStats(&ms1)
	ph.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	ph.gcs = ms1.NumGC - ms0.NumGC
	ph.pause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	return ph, nil
}

func scaleBy(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}

// recheck recomputes every recheckEvery-th job and marks a mismatch as that
// job's failure.
func recheck(b bench, samples []sample, w io.Writer) {
	n := 0
	for i := 0; i < len(samples); i += recheckEvery {
		n++
		if samples[i].err != nil {
			continue
		}
		if err := b.recheck(i, samples[i]); err != nil {
			samples[i].err = fmt.Errorf("recheck: %w", err)
		}
	}
	fmt.Fprintf(w, "rechecked %d jobs by a second path\n", n)
}

// count adds samples to the attempted and failed totals, printing the
// first few failures.
func (r *report) count(w io.Writer, samples []sample) {
	for i, s := range samples {
		r.Attempted++
		if s.err == nil {
			continue
		}
		if r.Failed < 5 {
			fmt.Fprintf(w, "job %d failed: %v\n", i, s.err)
		}
		r.Failed++
		r.Correct = false
	}
}

func (r *report) set(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// print writes one line per metric, with its unit and the number of jobs
// it was measured over.
func (r *report) print(w io.Writer, workload string, jobs int) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%s %-36s %14.6g %-8s n=%d\n", workload, name, m.Value, m.Unit, jobs)
	}
	fmt.Fprintf(w, "%s attempted=%d failed=%d correct=%t\n", workload, r.Attempted, r.Failed, r.Correct)
}

// endToEnd fills in the end-to-end metrics of an untraced phase.
func endToEnd(r *report, setup time.Duration, ph phase, rssKB int64) {
	ms := make([]float64, len(ph.samples))
	for i, s := range ph.samples {
		ms[i] = float64(s.elapsed) / float64(time.Millisecond)
	}
	jobs := float64(len(ph.samples))
	r.set("setup_s", "s", setup.Seconds())
	p50, _ := quantile(ms, 0.5)
	r.set("job_p50_ms", "ms", p50)
	if p90, ok := quantile(ms, 0.9); ok {
		r.set("job_p90_ms", "ms", p90)
	}
	r.set("jobs_per_s", "1/s", jobs/ph.wall.Seconds())
	r.set("cpu_ms_per_job", "ms", float64(ph.cpu)/float64(time.Millisecond)/jobs)
	r.set("alloc_mb_per_job", "MB", float64(ph.alloc)/(1<<20)/jobs)
	r.set("peak_rss_mb", "MB", float64(rssKB)/1024)
}

// minBeyond is the fewest samples that must lie beyond a reported
// percentile.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of xs, and whether at least
// minBeyond samples lie beyond it (always true for the median).
func quantile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], q <= 0.5 || len(s)-rank >= minBeyond
}

// digest is a SHA-256 of the first n simulated results, in job order.
func digest(samples []sample, n int) string {
	h := sha256.New()
	for _, s := range samples[:min(n, len(samples))] {
		h.Write(s.result)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// rusage is this process's resource usage; Maxrss is in KiB.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only for an invalid who
	return ru
}

// cpuTime is this process's user plus system CPU time.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
