package harness

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"ptguard/internal/attack"
	"ptguard/internal/mac"
	"ptguard/internal/obs"
	"ptguard/internal/report"
	"ptguard/internal/sim"
	"ptguard/internal/stats"
	"ptguard/internal/workload"
)

// This file maps the paper's evaluation campaigns (Fig. 6/7 slowdowns,
// §VII-C multicore mixes, the Table-V-style ablations, and the Fig. 9
// correction sweep) onto harness jobs, and aggregates the job results back
// into report tables. A job's seed is a pure function of the campaign seed
// and its key, which is what makes a parallel run byte-identical to a
// serial one. The slowdown, ablation and correction campaigns compare
// configurations row by row (MAC latency, a disabled guess strategy, k,
// the MAC width, p_flip), so every one of their jobs runs on the campaign
// seed itself: each row sees the same workload stream or page-table
// population, and a difference between rows is the configuration's alone.
// The multicore mixes seed each job with DeriveSeed(campaignSeed, jobKey).

// DeriveSeed maps (campaign seed, job key) to the job's simulation seed: a
// pure function, so results never depend on worker count or scheduling
// order. It is stats.DeriveSeed, re-exported here because the job keys of
// every journal on disk were derived through this name.
func DeriveSeed(campaignSeed uint64, key string) uint64 {
	return stats.DeriveSeed(campaignSeed, key)
}

// ObsSpec turns on per-job observability for a campaign: each job's runs
// collect metrics, periodic time-series snapshots, and (optionally) trace
// events, all embedded in the job result so the checkpoint journal carries
// them. A nil *ObsSpec disables observability entirely.
type ObsSpec struct {
	// SnapshotEvery is the retired-instruction cadence of time-series
	// snapshots (trials for fault campaigns); 0 records only the run-final
	// snapshot.
	SnapshotEvery int
	// TraceCapacity bounds each run's event ring; 0 selects the default,
	// negative disables tracing.
	TraceCapacity int
	// IncludeTrace copies each run's traced events into the job result
	// (and therefore into the journal — mind the size on large campaigns).
	IncludeTrace bool
}

// options maps the spec onto obs.Options; nil stays nil (disabled).
func (o *ObsSpec) options() *obs.Options {
	if o == nil {
		return nil
	}
	return &obs.Options{TraceCapacity: o.TraceCapacity, SnapshotEvery: o.SnapshotEvery}
}

// strip drops the trace payload unless the spec asked for it.
func (o *ObsSpec) strip(rm *obs.RunMetrics) *obs.RunMetrics {
	if rm != nil && (o == nil || !o.IncludeTrace) {
		rm.Trace, rm.Dropped = nil, 0
	}
	return rm
}

// ---------------------------------------------------------------------------
// Fig. 6/7: per-workload slowdown grid.

// SlowdownSpec declares the Fig. 6/7 campaign: workloads × MAC latencies,
// each comparing the requested modes against the baseline.
type SlowdownSpec struct {
	// Workloads filters the benchmark set; empty selects all 25.
	Workloads []string
	// Modes are the protection modes; empty selects PTGuard and
	// PTGuardOptimized.
	Modes []sim.Mode
	// Warmup and Instructions parameterise each run; zero selects the
	// Fig. 6 defaults (200k / 400k).
	Warmup       int
	Instructions int
	// MACLatencies is the Fig. 7 sweep; empty selects {10}.
	MACLatencies []int
	// Obs, when set, collects per-mode metrics/series/trace in each job
	// result.
	Obs *ObsSpec
}

// SlowdownResult is one grid point: a workload's cross-mode comparison at
// one MAC latency. Obs, when the campaign ran with an ObsSpec, carries the
// per-mode observability data keyed by mode name.
type SlowdownResult struct {
	MACLatency int                        `json:"mac_latency"`
	Comparison sim.Comparison             `json:"comparison"`
	Obs        map[string]*obs.RunMetrics `json:"obs,omitempty"`
}

func init() { Register[SlowdownSpec, SlowdownResult]() }

// Kind names the Fig. 6/7 campaign.
func (SlowdownSpec) Kind() string { return "slowdown" }

func (s SlowdownSpec) withDefaults() SlowdownSpec {
	if len(s.Modes) == 0 {
		s.Modes = []sim.Mode{sim.PTGuard, sim.PTGuardOptimized}
	}
	if s.Warmup == 0 {
		s.Warmup = 200_000
	}
	if s.Instructions == 0 {
		s.Instructions = 400_000
	}
	if len(s.MACLatencies) == 0 {
		s.MACLatencies = []int{10}
	}
	return s
}

// Jobs expands the spec into one job per (MAC latency, workload), all on
// the campaign seed, so a workload runs the same instruction stream (and
// the same baseline) at every latency.
func (s SlowdownSpec) Jobs(campaignSeed uint64) ([]Job[SlowdownResult], error) {
	s = s.withDefaults()
	if err := checkRunLength(s.Warmup, s.Instructions); err != nil {
		return nil, err
	}
	// The sim reads a zero latency as its 10-cycle default and a negative
	// one as a MAC faster than free, so either would mislabel its table.
	for _, lat := range s.MACLatencies {
		if lat <= 0 {
			return nil, fmt.Errorf("harness: MAC latency %d cycles must be positive", lat)
		}
	}
	profs := workload.Profiles()
	if len(s.Workloads) > 0 {
		sel := make([]workload.Profile, 0, len(s.Workloads))
		for _, name := range s.Workloads {
			p, err := workload.ProfileByName(name)
			if err != nil {
				return nil, err
			}
			sel = append(sel, p)
		}
		profs = sel
	}
	var jobs []Job[SlowdownResult]
	for _, lat := range s.MACLatencies {
		for _, prof := range profs {
			prof, lat := prof, lat
			jobs = append(jobs, Job[SlowdownResult]{
				Key: fmt.Sprintf("slowdown/%s/mac%d", prof.Name, lat),
				Run: func(context.Context) (SlowdownResult, error) {
					cmp, met, err := sim.CompareObserved(prof, s.Warmup, s.Instructions, campaignSeed, lat, s.Modes, s.Obs.options())
					res := SlowdownResult{MACLatency: lat, Comparison: cmp}
					if met != nil {
						res.Obs = make(map[string]*obs.RunMetrics, len(met))
						for m, rm := range met {
							res.Obs[m.String()] = s.Obs.strip(rm)
						}
					}
					return res, err
				},
			})
		}
	}
	return jobs, nil
}

// Report aggregates grid results into one Fig. 6-style table per MAC
// latency, each with the AMEAN / GMEAN-IPC / WORST summary rows. Several
// latencies form the Fig. 7 sweep, which adds one table of each mode's
// average and worst slowdown per latency. Each mode's observability data
// is labelled workload/macN/mode.
func (s SlowdownSpec) Report(results []SlowdownResult) (*Output, error) {
	modes := s.withDefaults().Modes
	out := &Output{}
	var order []int
	byLat := make(map[int][]sim.Comparison)
	for _, r := range results {
		if _, ok := byLat[r.MACLatency]; !ok {
			order = append(order, r.MACLatency)
		}
		byLat[r.MACLatency] = append(byLat[r.MACLatency], r.Comparison)
		names := make([]string, 0, len(r.Obs))
		for m := range r.Obs {
			names = append(names, m)
		}
		sort.Strings(names)
		for _, m := range names {
			out.Runs = append(out.Runs, LabelledRun{fmt.Sprintf("%s/mac%d/%s", r.Comparison.Workload, r.MACLatency, m), r.Obs[m]})
		}
	}
	headers := []string{"workload", "suite", "LLC MPKI"}
	fig7Headers := []string{"MAC latency"}
	for _, m := range modes {
		headers = append(headers, m.String()+" slowdown")
		fig7Headers = append(fig7Headers, m.String()+" avg", m.String()+" worst")
	}
	fig7 := report.New("Fig. 7 — slowdown vs MAC computation latency", fig7Headers...)
	for _, lat := range order {
		cmps := byLat[lat]
		tbl := report.New(
			fmt.Sprintf("Fig. 6 — PT-Guard slowdown vs unprotected baseline (MAC latency %d cycles)", lat),
			headers...)
		for _, cmp := range cmps {
			row := []string{cmp.Workload, suiteOf(cmp.Workload), report.F(cmp.LLCMPKI, 1)}
			for _, m := range modes {
				row = append(row, report.Pct(cmp.SlowdownPct[m]))
			}
			tbl.AddRow(row...)
		}
		sums := make(map[sim.Mode]sim.SuiteSummary, len(modes))
		for _, m := range modes {
			sum, err := sim.Summarize(cmps, m)
			if err != nil {
				return nil, err
			}
			sums[m] = sum
		}
		amean := []string{"AMEAN", "", ""}
		gmean := []string{"GMEAN IPC", "", ""}
		worst := []string{"WORST", "", sums[modes[0]].WorstName}
		fig7Row := []string{fmt.Sprintf("%d cycles", lat)}
		for _, m := range modes {
			amean = append(amean, report.Pct(sums[m].MeanPct))
			gmean = append(gmean, report.F(sums[m].GeoMeanIPC, 4))
			worst = append(worst, report.Pct(sums[m].WorstPct))
			fig7Row = append(fig7Row, report.Pct(sums[m].MeanPct), report.Pct(sums[m].WorstPct))
		}
		tbl.AddRow(amean...)
		tbl.AddRow(gmean...)
		tbl.AddRow(worst...)
		out.Tables = append(out.Tables, tbl)
		fig7.AddRow(fig7Row...)
	}
	if len(order) > 1 {
		out.Tables = append(out.Tables, fig7)
	}
	return out, nil
}

// checkRunLength rejects a negative warm-up or measured window before any
// job is dispatched (zero selects the spec's default, so it never reaches
// here). A negative warm-up would otherwise be skipped without a word.
func checkRunLength(warmup, instructions int) error {
	if warmup < 0 {
		return fmt.Errorf("harness: negative warm-up (%d instructions)", warmup)
	}
	if instructions < 0 {
		return fmt.Errorf("harness: negative instruction count %d", instructions)
	}
	return nil
}

func suiteOf(name string) string {
	if p, err := workload.ProfileByName(name); err == nil {
		return p.Suite
	}
	return ""
}

// ---------------------------------------------------------------------------
// §VII-C: multicore mixes.

// MulticoreSpec declares the §VII-C campaign: SAME mixes (four copies of
// one benchmark) and MIX mixes (four random distinct benchmarks).
type MulticoreSpec struct {
	// SameMixes and MixMixes count the two mix families (paper: 18 / 16).
	SameMixes int
	MixMixes  int
	// Warmup and Instructions are per core; zero selects 100k / 200k.
	Warmup       int
	Instructions int
	// MACLatency is the PT-Guard check latency; zero selects 10.
	MACLatency int
}

func init() { Register[MulticoreSpec, sim.MulticoreResult]() }

// Kind names the §VII-C campaign.
func (MulticoreSpec) Kind() string { return "multicore" }

func (s MulticoreSpec) withDefaults() MulticoreSpec {
	if s.Warmup == 0 {
		s.Warmup = 100_000
	}
	if s.Instructions == 0 {
		s.Instructions = 200_000
	}
	if s.MACLatency == 0 {
		s.MACLatency = 10
	}
	return s
}

// Mixes expands the mix list deterministically from the campaign seed
// (MIX membership is drawn from an RNG seeded by it).
func (s MulticoreSpec) Mixes(campaignSeed uint64) []sim.MulticoreMix {
	s = s.withDefaults()
	profiles := workload.Profiles()
	r := stats.NewRNG(campaignSeed)
	var mixes []sim.MulticoreMix
	for i := 0; i < s.SameMixes && i < len(profiles); i++ {
		p := profiles[i]
		mixes = append(mixes, sim.MulticoreMix{
			Name:      p.Name + "-SAME",
			Workloads: []workload.Profile{p, p, p, p},
		})
	}
	for i := 0; i < s.MixMixes; i++ {
		perm := r.Perm(len(profiles))
		mixes = append(mixes, sim.MulticoreMix{
			Name: fmt.Sprintf("MIX-%02d", i+1),
			Workloads: []workload.Profile{
				profiles[perm[0]], profiles[perm[1]], profiles[perm[2]], profiles[perm[3]],
			},
		})
	}
	return mixes
}

// Jobs expands the spec into one job per mix.
func (s MulticoreSpec) Jobs(campaignSeed uint64) ([]Job[sim.MulticoreResult], error) {
	s = s.withDefaults()
	if err := checkRunLength(s.Warmup, s.Instructions); err != nil {
		return nil, err
	}
	var jobs []Job[sim.MulticoreResult]
	for _, mix := range s.Mixes(campaignSeed) {
		mix := mix
		key := "multicore/" + mix.Name
		seed := DeriveSeed(campaignSeed, key)
		jobs = append(jobs, Job[sim.MulticoreResult]{
			Key: key,
			Run: func(context.Context) (sim.MulticoreResult, error) {
				return sim.CompareMulticore(mix, s.Warmup, s.Instructions, seed, s.MACLatency)
			},
		})
	}
	return jobs, nil
}

// Report aggregates mix results with AVERAGE and WORST rows.
func (MulticoreSpec) Report(results []sim.MulticoreResult) (*Output, error) {
	if len(results) == 0 {
		return nil, errors.New("harness: no multicore results")
	}
	tbl := report.New("§VII-C — 4-core slowdown (O3 cores, contended channel)",
		"mix", "slowdown")
	slowdowns := make([]float64, 0, len(results))
	worst, worstName := results[0].SlowdownPct, results[0].Mix
	for _, r := range results {
		slowdowns = append(slowdowns, r.SlowdownPct)
		if r.SlowdownPct > worst {
			worst, worstName = r.SlowdownPct, r.Mix
		}
		tbl.AddRow(r.Mix, report.Pct(r.SlowdownPct))
	}
	mean, err := stats.Mean(slowdowns)
	if err != nil {
		return nil, err
	}
	tbl.AddRow("AVERAGE", report.Pct(mean))
	tbl.AddRow("WORST ("+worstName+")", report.Pct(worst))
	return &Output{Tables: []*report.Table{tbl}}, nil
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5 / §VII-A) and the Fig. 9 correction sweep.

// AblationSpec declares the three ablation grids: guess-strategy
// contributions, the soft-match budget k, and the MAC width design point.
type AblationSpec struct {
	// Lines is the number of faulty lines per configuration; zero
	// selects 400.
	Lines int
	// FlipProb is the per-bit flip probability; zero selects 1/128.
	FlipProb float64
	// SoftKs is the soft-match budget sweep; empty selects {1,2,4,6,8}.
	SoftKs []int
	// Widths is the MAC width sweep; empty selects {64,80,96}.
	Widths []int
}

// Ablation result kinds.
const (
	AblationStrategy = "strategy"
	AblationSoftK    = "soft-k"
	AblationWidth    = "width"
)

// AblationResult is one ablation grid point.
type AblationResult struct {
	Kind       string                  `json:"kind"`
	Label      string                  `json:"label"`
	SoftK      int                     `json:"soft_k,omitempty"`
	TagBits    int                     `json:"tag_bits,omitempty"`
	Correction attack.CorrectionResult `json:"correction"`
}

// strategyAblations lists the §VI-D guess strategies toggled off one at a
// time (DESIGN.md §5.5).
var strategyAblations = []struct {
	name   string
	mutate func(*attack.CorrectionConfig)
}{
	{name: "full §VI-D algorithm", mutate: func(*attack.CorrectionConfig) {}},
	{name: "without flip-and-check", mutate: func(c *attack.CorrectionConfig) { c.DisableFlipAndCheck = true }},
	{name: "without zero-PTE reset", mutate: func(c *attack.CorrectionConfig) { c.DisableZeroReset = true }},
	{name: "without flag majority vote", mutate: func(c *attack.CorrectionConfig) { c.DisableFlagVote = true }},
	{name: "without PFN contiguity", mutate: func(c *attack.CorrectionConfig) { c.DisableContiguity = true }},
}

func init() { Register[AblationSpec, AblationResult]() }

// Kind names the ablation campaign.
func (AblationSpec) Kind() string { return "ablation" }

func (s AblationSpec) withDefaults() AblationSpec {
	if s.Lines == 0 {
		s.Lines = 400
	}
	if s.FlipProb == 0 {
		s.FlipProb = 1.0 / 128
	}
	if len(s.SoftKs) == 0 {
		s.SoftKs = []int{1, 2, 4, 6, 8}
	}
	if len(s.Widths) == 0 {
		s.Widths = []int{64, 80, 96}
	}
	return s
}

// Jobs expands the spec into one job per ablation configuration, all on
// the campaign seed, so every configuration corrects the same faulty
// lines.
func (s AblationSpec) Jobs(campaignSeed uint64) ([]Job[AblationResult], error) {
	s = s.withDefaults()
	if err := checkFlipProb(s.FlipProb); err != nil {
		return nil, err
	}
	var jobs []Job[AblationResult]
	add := func(key string, res AblationResult, mutate func(*attack.CorrectionConfig)) {
		jobs = append(jobs, Job[AblationResult]{
			Key: key,
			Run: func(context.Context) (AblationResult, error) {
				cfg := attack.CorrectionConfig{FlipProb: s.FlipProb, Lines: s.Lines, Seed: campaignSeed}
				mutate(&cfg)
				r, err := attack.RunCorrection(cfg)
				res.Correction = r
				return res, err
			},
		})
	}
	for _, tc := range strategyAblations {
		tc := tc
		add("ablation/strategy/"+tc.name,
			AblationResult{Kind: AblationStrategy, Label: tc.name}, tc.mutate)
	}
	for _, k := range s.SoftKs {
		k := k
		add(fmt.Sprintf("ablation/soft-k/%d", k),
			AblationResult{Kind: AblationSoftK, Label: fmt.Sprintf("k=%d", k), SoftK: k},
			func(c *attack.CorrectionConfig) { c.SoftMatchK = k })
	}
	for _, w := range s.Widths {
		w := w
		add(fmt.Sprintf("ablation/width/%d", w),
			AblationResult{Kind: AblationWidth, Label: fmt.Sprintf("%d-bit", w), TagBits: w},
			func(c *attack.CorrectionConfig) { c.TagBits = w })
	}
	return jobs, nil
}

// Report aggregates ablation results into the three tables of the sweep's
// ablation section: strategy contributions, the k trade-off (with the
// analytic security column), and the MAC-width design point.
func (s AblationSpec) Report(results []AblationResult) (*Output, error) {
	s = s.withDefaults()
	steps := report.New(
		fmt.Sprintf("Correction guess strategies (p=%.5f, %d lines)", s.FlipProb, s.Lines),
		"configuration", "corrected %", "coverage %")
	kTbl := report.New("Soft-match budget k trade-off",
		"k", "corrected %", "effective MAC bits", "attack years")
	wTbl := report.New("MAC width design point (§VII-A)",
		"width", "corrected %", "effective MAC bits (k=4)")
	for _, r := range results {
		switch r.Kind {
		case AblationStrategy:
			steps.AddRow(r.Label, report.Pct(r.Correction.CorrectedPct()), report.Pct(r.Correction.CoveragePct()))
		case AblationSoftK:
			nEff, err := mac.EffectiveMACBits(96, r.SoftK, mac.GMaxPaper)
			if err != nil {
				return nil, err
			}
			kTbl.AddRow(report.I(r.SoftK), report.Pct(r.Correction.CorrectedPct()),
				report.F(nEff, 1), fmt.Sprintf("%.3g", mac.AttackYears(nEff, 50)))
		case AblationWidth:
			nEff, err := mac.EffectiveMACBits(r.TagBits, 4, mac.GMaxPaper)
			if err != nil {
				return nil, err
			}
			wTbl.AddRow(r.Label, report.Pct(r.Correction.CorrectedPct()), report.F(nEff, 1))
		default:
			return nil, fmt.Errorf("harness: unknown ablation kind %q", r.Kind)
		}
	}
	return &Output{Tables: []*report.Table{steps, kTbl, wTbl}}, nil
}

// CorrectionSpec declares the Fig. 9 sweep: correction rate vs per-bit
// flip probability over the synthesised page-table population.
type CorrectionSpec struct {
	// Lines is the number of faulty lines per probability; zero selects
	// 400.
	Lines int
	// Probs is the probability sweep; empty selects attack.Fig9FlipProbs.
	Probs []float64
}

// CorrectionPoint is one Fig. 9 sweep point.
type CorrectionPoint struct {
	FlipProb float64                 `json:"flip_prob"`
	Result   attack.CorrectionResult `json:"result"`
}

func init() { Register[CorrectionSpec, CorrectionPoint]() }

// Kind names the Fig. 9 campaign.
func (CorrectionSpec) Kind() string { return "correction" }

func (s CorrectionSpec) withDefaults() CorrectionSpec {
	if s.Lines == 0 {
		s.Lines = 400
	}
	if len(s.Probs) == 0 {
		s.Probs = append([]float64(nil), attack.Fig9FlipProbs...)
	}
	return s
}

// Jobs expands the spec into one job per flip probability, all on the
// campaign seed, so every probability flips bits of the same sampled
// lines.
func (s CorrectionSpec) Jobs(campaignSeed uint64) ([]Job[CorrectionPoint], error) {
	s = s.withDefaults()
	var jobs []Job[CorrectionPoint]
	for _, p := range s.Probs {
		p := p
		if err := checkFlipProb(p); err != nil {
			return nil, err
		}
		jobs = append(jobs, Job[CorrectionPoint]{
			Key: fmt.Sprintf("correction/p=%g", p),
			Run: func(context.Context) (CorrectionPoint, error) {
				r, err := attack.RunCorrection(attack.CorrectionConfig{
					FlipProb: p, Lines: s.Lines, Seed: campaignSeed,
				})
				return CorrectionPoint{FlipProb: p, Result: r}, err
			},
		})
	}
	return jobs, nil
}

// Report aggregates the Fig. 9 sweep.
func (s CorrectionSpec) Report(results []CorrectionPoint) (*Output, error) {
	tbl := report.New(
		fmt.Sprintf("Fig. 9 — correction vs per-bit flip probability (%d lines)", s.withDefaults().Lines),
		"p", "erroneous", "corrected %", "coverage %", "miscorrected", "guesses")
	for _, r := range results {
		tbl.AddRow(fmt.Sprintf("%.5f", r.FlipProb), report.I(r.Result.Erroneous),
			report.Pct(r.Result.CorrectedPct()), report.Pct(r.Result.CoveragePct()),
			report.I(r.Result.Miscorrected), report.U(r.Result.Guesses))
	}
	return &Output{Tables: []*report.Table{tbl}}, nil
}

// checkFlipProb rejects a per-bit flip probability outside (0, 1), NaN
// included, before any job runs.
func checkFlipProb(p float64) error {
	if !(p > 0 && p < 1) {
		return fmt.Errorf("harness: flip probability %g outside (0, 1)", p)
	}
	return nil
}
