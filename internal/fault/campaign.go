package fault

import (
	"errors"
	"fmt"

	"ptguard/internal/core"
	"ptguard/internal/dram"
	"ptguard/internal/mac"
	"ptguard/internal/memctrl"
	"ptguard/internal/obs"
	"ptguard/internal/ostable"
	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

// CampaignConfig parameterises one fault-injection campaign: a single flip
// model exercised against a synthetic page-table population, with every
// Guard verdict cross-checked against the ground-truth oracle.
type CampaignConfig struct {
	// Model is the flip model under test; nil selects the paper's uniform
	// Bernoulli at the LPDDR4 worst case (1/128).
	Model dram.FlipModel
	// Lines is the number of faulty PTE cachelines to evaluate (trials
	// whose injection produced no net flip still feed the clean-pass /
	// false-alarm cells but do not count toward Lines).
	Lines int
	// Seed drives the population synthesiser and the fault RNG.
	Seed uint64
	// EnableCorrection turns on the §VI best-effort correction engine;
	// off, the campaign measures pure detection.
	EnableCorrection bool
	// SoftMatchK overrides the MAC fault budget; 0 selects the paper's 4.
	SoftMatchK int
	// TagBits overrides the MAC width; 0 selects 96. Small values make
	// miscorrections observable (§VI-D soft-match collisions).
	TagBits int
	// MaxTrials bounds the injection loop for models that rarely flip;
	// 0 selects 1000 x Lines.
	MaxTrials int
	// Obs, when set, builds an Observer over these options for the
	// campaign: Guard/DRAM events are traced (stamped with a per-trial
	// tick), metrics feed the registry, and the snapshot cadence counts
	// trials. The collected RunMetrics land in CampaignResult.Obs.
	Obs *obs.Options
}

func (c CampaignConfig) withDefaults() CampaignConfig {
	if c.Model == nil {
		c.Model = Uniform{P: dram.FlipProbLPDDR4}
	}
	if c.MaxTrials <= 0 {
		c.MaxTrials = 1000 * c.Lines
	}
	return c
}

// CampaignResult is one campaign's confusion matrix plus the device-side
// flip attribution that satellite telemetry exposes.
type CampaignResult struct {
	// Model is the flip model's display name.
	Model string `json:"model"`
	// Mode is "correct" or "detect".
	Mode string `json:"mode"`
	// Matrix is the oracle's confusion matrix.
	Matrix Matrix `json:"matrix"`
	// Trials is the number of inject+read rounds performed (>= faulty
	// lines for models that do not always flip).
	Trials int `json:"trials"`
	// Guesses is the total correction guesses the Guard spent.
	Guesses uint64 `json:"guesses"`
	// Device snapshots the DRAM counters, including FlipsInjected.
	Device dram.Stats `json:"device"`
	// HotRows lists the (bank, row) pairs that absorbed the most flips,
	// most-hit first, capped at eight entries.
	HotRows []dram.FlipCount `json:"hot_rows,omitempty"`
	// Obs carries the campaign's observability data when CampaignConfig.Obs
	// was set.
	Obs *obs.RunMetrics `json:"obs,omitempty"`
}

// RunCampaign executes one fault-injection campaign end to end: synthesise
// page tables (§VI-B value locality), protect them through the memory
// controller, inject faults with the configured model, replay page-table
// walks through the Guard, and let the oracle classify every verdict.
func RunCampaign(cfg CampaignConfig) (CampaignResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Lines <= 0 {
		return CampaignResult{}, errors.New("fault: Lines must be positive")
	}
	k := cfg.SoftMatchK
	if k == 0 {
		k = 4
	}
	dev, err := dram.NewDevice(dram.Geometry{}, dram.Timing{})
	if err != nil {
		return CampaignResult{}, err
	}
	format, err := pte.FormatX86(40)
	if err != nil {
		return CampaignResult{}, err
	}
	key := make([]byte, mac.KeySize)
	kr := stats.NewRNG(cfg.Seed ^ 0xF19)
	for i := range key {
		key[i] = byte(kr.Uint64())
	}
	guard, err := core.NewGuard(core.Config{
		Format:           format,
		Key:              key,
		TagBits:          cfg.TagBits,
		EnableCorrection: cfg.EnableCorrection,
		SoftMatchK:       k,
	})
	if err != nil {
		return CampaignResult{}, err
	}
	ctrl, err := memctrl.New(dev, guard, 0)
	if err != nil {
		return CampaignResult{}, err
	}
	var observer *obs.Observer
	if cfg.Obs != nil {
		observer = obs.New(*cfg.Obs)
		// No core clock here: the internal monotonic tick orders events.
		ctrl.SetObserver(observer)
	}
	alloc, err := ostable.NewFrameAllocator(4096, dev.Geometry().Capacity()/pte.PageSize-4096)
	if err != nil {
		return CampaignResult{}, err
	}
	hmr, err := dram.NewHammerer(dev, dram.HammerConfig{
		Model: cfg.Model,
		Seed:  cfg.Seed ^ 0xFA17,
	})
	if err != nil {
		return CampaignResult{}, err
	}

	oracle := NewOracle(format)
	hmr.SetObserver(oracle.RecordFlip)

	// The same shuffled line pool as attack.RunCorrection: every model
	// sees the same population. Every table line of every process is
	// flushed, in process order, so the device and controller counters in
	// the report cover the whole population.
	pool, err := ostable.SynthesizePool(alloc, cfg.Seed)
	if err != nil {
		return CampaignResult{}, err
	}
	var flushAddrs []uint64
	var flushLines []pte.Line
	for _, pt := range pool.Tables() {
		flushAddrs, flushLines = flushAddrs[:0], flushLines[:0]
		pt.Lines(func(addr uint64, line pte.Line) {
			flushAddrs = append(flushAddrs, addr)
			flushLines = append(flushLines, line)
		})
		if _, werr := ctrl.WriteLinesBatch(flushAddrs, flushLines); werr != nil {
			return CampaignResult{}, werr
		}
	}
	addrs := make([]uint64, pool.Len())
	protected := make([]pte.Line, pool.Len())
	for i := range addrs {
		entry := pool.Line(i)
		oracle.Expect(entry.Addr, entry.Line)
		addrs[i], protected[i] = entry.Addr, dev.ReadLine(entry.Addr)
	}
	// Ground-truth sanity: before any fault is injected, every pooled line
	// must audit clean — a dirty line here means the pool snapshot and the
	// stored state already disagree, which would corrupt every verdict the
	// oracle hands out below.
	for i := range addrs {
		if !guard.Audit(protected[i], addrs[i]) {
			return CampaignResult{}, fmt.Errorf("fault: pooled line %#x audits dirty before fault injection", addrs[i])
		}
	}

	res := CampaignResult{Model: cfg.Model.Name(), Mode: modeName(cfg.EnableCorrection)}
	for trial := 0; int(oracle.Matrix().Faulty()) < cfg.Lines; trial++ {
		if trial >= cfg.MaxTrials {
			break // model too weak to reach Lines faulty trials; report what we have
		}
		i := trial % len(addrs)
		dev.WriteLine(addrs[i], protected[i])
		hmr.InjectFaults(addrs[i])

		before := guard.Counters()
		got, _, ok := ctrl.ReadLine(addrs[i], true)
		after := guard.Counters()
		res.Guesses += after.CorrectionGuesses - before.CorrectionGuesses
		claimed := after.Corrections > before.Corrections

		if _, jerr := oracle.Judge(addrs[i], got, !ok, claimed); jerr != nil {
			return CampaignResult{}, jerr
		}
		res.Trials++
		if observer.ShouldSnapshot(uint64(res.Trials)) {
			ctrl.PublishObs(observer.Registry())
			observer.Snapshot(observer.Now(), uint64(res.Trials))
		}
		// Restore the pristine protected image for the next pass.
		dev.WriteLine(addrs[i], protected[i])
	}

	res.Matrix = oracle.Matrix()
	res.Device = dev.Stats()
	counts := dev.FlipCounts()
	for i := 0; i < len(counts); i++ { // selection by flips, stable (bank,row) order
		max := i
		for j := i + 1; j < len(counts); j++ {
			if counts[j].Flips > counts[max].Flips {
				max = j
			}
		}
		counts[i], counts[max] = counts[max], counts[i]
		if i == 7 {
			break
		}
	}
	if len(counts) > 8 {
		counts = counts[:8]
	}
	res.HotRows = counts
	if res.Matrix.FlipsInjected != res.Device.FlipsInjected {
		return CampaignResult{}, fmt.Errorf("fault: oracle saw %d flips but device recorded %d",
			res.Matrix.FlipsInjected, res.Device.FlipsInjected)
	}
	if observer != nil {
		ctrl.PublishObs(observer.Registry())
		observer.Registry().SetCounter("fault.trials", uint64(res.Trials))
		observer.Snapshot(observer.Now(), uint64(res.Trials))
		res.Obs = observer.RunMetrics(true)
	}
	return res, nil
}

func modeName(correction bool) string {
	if correction {
		return "correct"
	}
	return "detect"
}
