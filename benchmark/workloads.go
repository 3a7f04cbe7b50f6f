package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ptguard/internal/attack"
	"ptguard/internal/core"
	"ptguard/internal/dist"
	"ptguard/internal/harness"
	"ptguard/internal/obs"
	"ptguard/internal/sim"
	"ptguard/internal/stats"
	"ptguard/internal/workload"
)

// opener sets a workload up. tr is nil for an untraced instance.
type opener func(cfg config, tr *tracer) (bench, error)

// The workloads, each chosen to load different layers (README.md has the
// full rationale and the layer-to-metric map):
//
//   - fig6-ptguard runs the base design, which computes a MAC on every DRAM
//     read and write, so the scalar QARMA/mac/core MAC unit takes about half
//     the CPU. A MAC-unit change shows here.
//   - fig6-opt takes the same sim/cache/tlb/dram/memctrl path with the
//     optimised design, whose MAC unit is nearly idle. A MAC-unit change
//     must show no change here; a cache or step-loop change shows here first.
//   - fig9-correction is the read/verify side: sliced-kernel flip-and-check
//     waves and page-table population synthesis, without the sim stack.
//   - fig7-proc is the only workload through the harness, its journal and
//     the dist worker processes; its short jobs make dispatch and
//     sim.NewSystem visible.
var workloadTable = []struct {
	name string
	open opener
}{
	{"fig6-ptguard", openSim(sim.PTGuard, []string{"xalancbmk", "mcf", "lbm", "fotonik3d", "pr"})},
	{"fig6-opt", openSim(sim.PTGuardOptimized, nil)},
	{"fig9-correction", openCorrection},
	{"fig7-proc", openProc},
}

func workloadNames() []string {
	names := make([]string, len(workloadTable))
	for i, w := range workloadTable {
		names[i] = w.name
	}
	return names
}

func lookup(name string) (opener, bool) {
	for _, w := range workloadTable {
		if w.name == name {
			return w.open, true
		}
	}
	return nil, false
}

// scaled shrinks a job size for smoke runs.
func scaled(n int, scale float64) int {
	return max(1, int(float64(n)*scale))
}

// jobSeed derives job i's seed from the run's seed.
func jobSeed(seed uint64, workload string, i int) uint64 {
	return stats.DeriveSeed(seed, fmt.Sprintf("%s/job/%d", workload, i))
}

// newSample encodes a job's result and applies its output check.
func newSample[R any](elapsed time.Duration, res R, err error, check func(R) error) sample {
	if err == nil {
		err = check(res)
	}
	raw, jerr := json.Marshal(res)
	if err == nil {
		err = jerr
	}
	return sample{elapsed: elapsed, result: raw, err: err}
}

// sameResult compares a recomputed result with the timed run's.
func sameResult(s sample, res any, err error) error {
	if err != nil {
		return err
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if !bytes.Equal(raw, s.result) {
		return errors.New("result differs from the timed run")
	}
	return nil
}

// checkComparison holds for every Fig. 6/7 job: no integrity check fails in
// any mode, and the unprotected baseline never touches a guard.
func checkComparison(cmp sim.Comparison) error {
	base, ok := cmp.Results[sim.Baseline]
	if !ok {
		return errors.New("no baseline result")
	}
	if base.Guard != (core.Counters{}) {
		return fmt.Errorf("baseline guard counters are not zero: %+v", base.Guard)
	}
	for m, r := range cmp.Results {
		if r.CheckFails != 0 {
			return fmt.Errorf("%s: %d integrity check failures", m, r.CheckFails)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// fig6-ptguard and fig6-opt: sim.Compare over a cycle of workload profiles.

const macLatency = 10

type simBench struct {
	name        string
	mode        sim.Mode
	profs       []workload.Profile
	warm, instr int
	seed        uint64
	tr          *tracer
}

// openSim runs mode against the baseline on the named profiles, or on all
// 25 when names is nil.
func openSim(mode sim.Mode, names []string) opener {
	return func(cfg config, tr *tracer) (bench, error) {
		profs := workload.Profiles()
		if names != nil {
			profs = profs[:0:0]
			for _, name := range names {
				p, err := workload.ProfileByName(name)
				if err != nil {
					return nil, err
				}
				profs = append(profs, p)
			}
		}
		return &simBench{
			name: cfg.workload, mode: mode, profs: profs,
			warm: scaled(50_000, cfg.scale), instr: scaled(200_000, cfg.scale),
			seed: cfg.seed, tr: tr,
		}, nil
	}
}

func (b *simBench) cycle() int   { return len(b.profs) }
func (b *simBench) close() error { return nil }

func (b *simBench) job(i int) (workload.Profile, uint64) {
	return b.profs[i%len(b.profs)], jobSeed(b.seed, b.name, i)
}

func (b *simBench) compare(i int) (sim.Comparison, error) {
	prof, seed := b.job(i)
	return sim.Compare(prof, b.warm, b.instr, seed, macLatency, []sim.Mode{b.mode})
}

func (b *simBench) warmup() error {
	_, err := b.compare(0)
	return err
}

func (b *simBench) runCycle(c int) ([]sample, error) {
	out := make([]sample, len(b.profs))
	for k := range out {
		i := c*len(b.profs) + k
		start := time.Now()
		var (
			cmp sim.Comparison
			err error
		)
		if b.tr == nil {
			cmp, err = b.compare(i)
		} else {
			cmp, err = b.stepwise(i, b.tr)
		}
		out[k] = newSample(time.Since(start), cmp, err, checkComparison)
	}
	return out, nil
}

// recheck recomputes the job through the separate System calls.
func (b *simBench) recheck(i int, s sample) error {
	cmp, err := b.stepwise(i, nil)
	return sameResult(s, cmp, err)
}

// stepwise is sim.Compare spelled out through the public System calls, so
// that each call can carry a span and an observer. Its result must equal
// sim.Compare's: the recheck and the traced sim_digest hold it to that.
func (b *simBench) stepwise(i int, tr *tracer) (sim.Comparison, error) {
	prof, seed := b.job(i)
	job := tr.begin("job", i, -1)
	defer tr.end(job)
	cmp := sim.Comparison{
		Workload:    prof.Name,
		Results:     map[sim.Mode]sim.Result{},
		SlowdownPct: map[sim.Mode]float64{},
	}
	for _, m := range []sim.Mode{sim.Baseline, b.mode} {
		cfg := sim.Config{Mode: m, Seed: seed}
		role := "baseline"
		if m != sim.Baseline {
			cfg.MACLatencyCycles = macLatency
			role = "protected"
		}
		if tr != nil {
			cfg.Obs = obs.New(obs.Options{TraceCapacity: -1})
		}
		sp := tr.begin("sim.new_system", i, job)
		s, err := sim.NewSystem(cfg, prof)
		tr.end(sp)
		if err != nil {
			return sim.Comparison{}, err
		}
		sp = tr.begin("sim.warmup", i, job)
		_, err = s.Run(b.warm)
		s.ResetStats()
		tr.end(sp)
		if err != nil {
			return sim.Comparison{}, err
		}
		sp = tr.begin("sim.measure."+role, i, job)
		r, err := s.Run(b.instr)
		tr.end(sp)
		if err != nil {
			return sim.Comparison{}, err
		}
		cmp.Results[m] = r
		if m == sim.Baseline {
			cmp.LLCMPKI = r.LLCMPKI
			continue
		}
		if cmp.SlowdownPct[m], err = sim.SlowdownPercent(r.Cycles, cmp.Results[sim.Baseline].Cycles); err != nil {
			return sim.Comparison{}, err
		}
		if tr != nil && i < digestJobs {
			for name, v := range cfg.Obs.Registry().Snapshot().Counters {
				tr.add(name, float64(v))
			}
			tr.add("sim.slowdown_pct", cmp.SlowdownPct[m])
			tr.add("sim.jobs", 1)
		}
	}
	return cmp, nil
}

// ---------------------------------------------------------------------------
// fig9-correction: attack.RunCorrection cycling the Fig. 9 flip rates.

type correctionBench struct {
	name  string
	lines int
	seed  uint64
	tr    *tracer
}

func openCorrection(cfg config, tr *tracer) (bench, error) {
	return &correctionBench{name: cfg.workload, lines: scaled(500, cfg.scale), seed: cfg.seed, tr: tr}, nil
}

func (b *correctionBench) cycle() int   { return len(attack.Fig9FlipProbs) }
func (b *correctionBench) close() error { return nil }

func (b *correctionBench) config(i int) attack.CorrectionConfig {
	return attack.CorrectionConfig{
		FlipProb: attack.Fig9FlipProbs[i%len(attack.Fig9FlipProbs)],
		Lines:    b.lines,
		Seed:     jobSeed(b.seed, b.name, i),
	}
}

func (b *correctionBench) warmup() error {
	_, err := attack.RunCorrection(b.config(0))
	return err
}

// check holds for every Fig. 9 job: every erroneous line is corrected or
// detected, none is miscorrected, and every requested line was tried.
func (b *correctionBench) check(r attack.CorrectionResult) error {
	if r.Miscorrected != 0 || r.Corrected+r.Detected != r.Erroneous || r.Erroneous != b.lines {
		return fmt.Errorf("inconsistent correction result %+v for %d lines", r, b.lines)
	}
	return nil
}

func (b *correctionBench) runCycle(c int) ([]sample, error) {
	out := make([]sample, b.cycle())
	for k := range out {
		i := c*b.cycle() + k
		sp := b.tr.begin("attack.run_correction", i, -1)
		start := time.Now()
		r, err := attack.RunCorrection(b.config(i))
		out[k] = newSample(time.Since(start), r, err, b.check)
		b.tr.end(sp)
		if b.tr != nil && i < digestJobs {
			b.tr.add("attack.guesses", float64(r.Guesses))
			b.tr.add("attack.erroneous", float64(r.Erroneous))
			b.tr.add("attack.corrected", float64(r.Corrected))
			b.tr.add("attack.detected", float64(r.Detected))
		}
	}
	return out, nil
}

// recheck recomputes the job on one shard instead of two: RunCorrection's
// result must not depend on how its trials are sharded.
func (b *correctionBench) recheck(i int, s sample) error {
	prev := runtime.GOMAXPROCS(1)
	r, err := attack.RunCorrection(b.config(i))
	runtime.GOMAXPROCS(prev)
	return sameResult(s, r, err)
}

// ---------------------------------------------------------------------------
// fig7-proc: a Fig. 7 MAC-latency sweep through harness.Run over dist
// worker processes, one harness campaign round per MAC latency.

const procWorkers = 2

type procBench struct {
	jobs []harness.Job[harness.SlowdownResult]
	co   *dist.Coordinator
	dir  string
	tr   *tracer
}

func openProc(cfg config, tr *tracer) (bench, error) {
	spec := harness.SlowdownSpec{
		Modes:        []sim.Mode{sim.PTGuard, sim.PTGuardOptimized},
		Warmup:       scaled(10_000, cfg.scale),
		Instructions: scaled(40_000, cfg.scale),
	}
	for lat := 1; lat <= 16; lat++ {
		spec.MACLatencies = append(spec.MACLatencies, lat)
	}
	seed := stats.DeriveSeed(cfg.seed, cfg.workload)
	jobs, err := spec.Jobs(seed)
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	env := []string{workerEnv + "=1", "GOMAXPROCS=1"}
	if tr != nil {
		env = append(env, profileDirEnv+"="+tr.dir)
	}
	dir, err := os.MkdirTemp(cfg.out, "fig7-journal-")
	if err != nil {
		return nil, err
	}
	sp := tr.begin("dist.start", -1, -1)
	co, err := dist.Start(dist.Campaign{Kind: dist.KindSlowdown, Spec: spec, Seed: seed},
		dist.Options{Workers: procWorkers, WorkerCommand: []string{self}, WorkerEnv: env})
	tr.end(sp)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &procBench{jobs: jobs, co: co, dir: dir, tr: tr}, nil
}

// cycle is one MAC latency's 25 profiles.
func (b *procBench) cycle() int { return len(workload.Profiles()) }

func (b *procBench) warmup() error {
	rep, err := b.round(b.jobs[:procWorkers], "warmup", 0)
	if err == nil {
		err = rep.Err()
	}
	return err
}

func (b *procBench) runCycle(c int) ([]sample, error) {
	n := b.cycle()
	lo := c * n % len(b.jobs)
	rep, err := b.round(b.jobs[lo:lo+n], fmt.Sprintf("round-%d", c), c*n)
	if err != nil {
		return nil, err
	}
	out := make([]sample, n)
	for k, o := range rep.Outcomes {
		err := o.Err
		if err == nil && o.FromJournal {
			err = errors.New("result replayed from the journal instead of executed")
		}
		out[k] = newSample(o.Elapsed, o.Result, err, func(r harness.SlowdownResult) error {
			return checkComparison(r.Comparison)
		})
		if i := c*n + k; b.tr != nil && i < digestJobs && o.Err == nil {
			b.tr.add("sim.slowdown_pct", o.Result.Comparison.SlowdownPct[sim.PTGuard])
			b.tr.add("sim.jobs", 1)
		}
	}
	if b.tr != nil {
		b.tr.add("harness.journal_bytes", float64(rep.Metrics.JournalBytes))
		b.tr.add("harness.executed", float64(rep.Metrics.Executed))
		b.tr.add("harness.retries", float64(rep.Metrics.Retried))
	}
	return out, nil
}

// round runs jobs as one harness campaign over the worker processes, with
// a fresh journal. first is the run-wide index of jobs[0].
func (b *procBench) round(jobs []harness.Job[harness.SlowdownResult], name string, first int) (*harness.Report[harness.SlowdownResult], error) {
	var ex harness.Executor = b.co
	sp := b.tr.begin("harness.run", -1, -1)
	if b.tr != nil {
		ids := make(map[string]int, len(jobs))
		for k, j := range jobs {
			ids[j.Key] = first + k
		}
		ex = &tracedExecutor{co: b.co, tr: b.tr, parent: sp, ids: ids}
	}
	rep, err := harness.Run(context.Background(), jobs, harness.Options{
		Workers:     procWorkers,
		Backend:     b.co.Backend(),
		Executor:    ex,
		JournalPath: filepath.Join(b.dir, name+".jsonl"),
	})
	b.tr.end(sp)
	return rep, err
}

// recheck reruns the job in this process; the result must be byte-identical
// to the one the worker process sent.
func (b *procBench) recheck(i int, s sample) error {
	r, err := b.jobs[i%len(b.jobs)].Run(context.Background())
	return sameResult(s, r, err)
}

func (b *procBench) close() error {
	var err error
	if b.tr != nil {
		st := b.co.Status()
		b.tr.add("dist.requeues", float64(st.Requeues))
		b.tr.add("dist.heartbeat_timeouts", float64(st.HeartbeatTimeouts))
		b.tr.add("dist.jobs_per_worker_spread", jobSpread(st.Workers))
		err = flushWorkerProfiles(b.tr.dir)
	}
	b.co.Close()
	if werr := waitWorkers(10 * time.Second); err == nil {
		err = werr
	}
	if rerr := os.RemoveAll(b.dir); err == nil {
		err = rerr
	}
	return err
}

// jobSpread is (max-min)/mean of the jobs each worker ran.
func jobSpread(ws []dist.WorkerStatus) float64 {
	if len(ws) == 0 {
		return 0
	}
	lo, hi, sum := ws[0].Jobs, ws[0].Jobs, int64(0)
	for _, w := range ws {
		lo, hi, sum = min(lo, w.Jobs), max(hi, w.Jobs), sum+w.Jobs
	}
	if sum == 0 {
		return 0
	}
	return float64(hi-lo) * float64(len(ws)) / float64(sum)
}

// tracedExecutor records one dist.execute span per job it dispatches.
type tracedExecutor struct {
	co     *dist.Coordinator
	tr     *tracer
	parent int
	ids    map[string]int
}

func (e *tracedExecutor) Execute(ctx context.Context, key string) (json.RawMessage, error) {
	sp := e.tr.begin("dist.execute", e.ids[key], e.parent)
	defer e.tr.end(sp)
	return e.co.Execute(ctx, key)
}
