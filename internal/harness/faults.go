package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"ptguard/internal/dram"
	"ptguard/internal/fault"
	"ptguard/internal/report"
)

// ---------------------------------------------------------------------------
// Fault-model taxonomy campaign: confusion matrix per (model, mode).

// Fault campaign modes.
const (
	FaultModeDetect  = "detect"
	FaultModeCorrect = "correct"
)

// FaultSpec declares the fault-injection campaign: every flip model in the
// taxonomy crossed with the detection-only and correction-enabled Guard,
// each run cross-checked against the ground-truth oracle.
type FaultSpec struct {
	// Models are fault.Parse specs; empty selects the default taxonomy.
	Models []string
	// Modes selects "detect" and/or "correct"; empty selects both.
	Modes []string
	// Lines is the number of faulty lines per (model, mode); zero
	// selects 400.
	Lines int
	// SoftMatchK overrides the correction fault budget; 0 selects 4.
	SoftMatchK int
	// TagBits overrides the MAC width; 0 selects 96.
	TagBits int
	// Obs, when set, collects per-campaign metrics/series/trace in each
	// job result (snapshot cadence counts trials).
	Obs *ObsSpec
}

func init() { Register[FaultSpec, fault.CampaignResult]() }

// Kind names the fault-model taxonomy campaign.
func (FaultSpec) Kind() string { return "faults" }

func (s FaultSpec) withDefaults() FaultSpec {
	if len(s.Modes) == 0 {
		s.Modes = []string{FaultModeDetect, FaultModeCorrect}
	}
	if s.Lines == 0 {
		s.Lines = 400
	}
	return s
}

// models resolves the spec strings into flip models.
func (s FaultSpec) models() ([]dram.FlipModel, error) {
	if len(s.Models) == 0 {
		return fault.DefaultTaxonomy(), nil
	}
	out := make([]dram.FlipModel, 0, len(s.Models))
	for _, spec := range s.Models {
		m, err := fault.Parse(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// Jobs expands the spec into one campaign job per (model, mode).
func (s FaultSpec) Jobs(campaignSeed uint64) ([]Job[fault.CampaignResult], error) {
	s = s.withDefaults()
	models, err := s.models()
	if err != nil {
		return nil, err
	}
	var jobs []Job[fault.CampaignResult]
	for _, m := range models {
		for _, mode := range s.Modes {
			m, mode := m, mode
			var correction bool
			switch mode {
			case FaultModeDetect:
			case FaultModeCorrect:
				correction = true
			default:
				return nil, fmt.Errorf("harness: unknown fault mode %q (want %s or %s)",
					mode, FaultModeDetect, FaultModeCorrect)
			}
			key := fmt.Sprintf("faults/%s/%s", m.Name(), mode)
			seed := DeriveSeed(campaignSeed, key)
			jobs = append(jobs, Job[fault.CampaignResult]{
				Key: key,
				Run: func(context.Context) (fault.CampaignResult, error) {
					res, err := fault.RunCampaign(fault.CampaignConfig{
						Model:            m,
						Lines:            s.Lines,
						Seed:             seed,
						EnableCorrection: correction,
						SoftMatchK:       s.SoftMatchK,
						TagBits:          s.TagBits,
						Obs:              s.Obs.options(),
					})
					res.Obs = s.Obs.strip(res.Obs)
					return res, err
				},
			})
		}
	}
	return jobs, nil
}

// Report aggregates campaign results into the confusion-matrix table (one
// row per model and mode, with a TOTAL row) and a flip-attribution table
// showing where the injected faults landed in DRAM. Each campaign's
// observability data is labelled model/mode.
func (s FaultSpec) Report(results []fault.CampaignResult) (*Output, error) {
	if len(results) == 0 {
		return nil, errors.New("harness: no fault campaign results")
	}
	out := &Output{}
	matrix := report.New(
		fmt.Sprintf("Fault-model taxonomy — Guard confusion matrix (%d faulty lines per cell)", s.withDefaults().Lines),
		"model", "mode", "flips", "faulty", "detected", "corrected",
		"miscorrected", "silent", "corrected %", "coverage %", "guesses")
	var total fault.Matrix
	var totalGuesses uint64
	for _, r := range results {
		m := r.Matrix
		matrix.AddRow(r.Model, r.Mode,
			report.U(m.FlipsInjected), report.U(m.Faulty()),
			report.U(m.Detected), report.U(m.Corrected),
			report.U(m.Miscorrected), report.U(m.Silent),
			report.Pct(m.CorrectedPct()), report.Pct(m.CoveragePct()),
			report.U(r.Guesses))
		total.Add(m)
		totalGuesses += r.Guesses
		out.Runs = append(out.Runs, LabelledRun{r.Model + "/" + r.Mode, r.Obs})
	}
	matrix.AddRow("TOTAL", "",
		report.U(total.FlipsInjected), report.U(total.Faulty()),
		report.U(total.Detected), report.U(total.Corrected),
		report.U(total.Miscorrected), report.U(total.Silent),
		report.Pct(total.CorrectedPct()), report.Pct(total.CoveragePct()),
		report.U(totalGuesses))

	attr := report.New("Flip attribution — hottest DRAM rows per campaign",
		"model", "mode", "total flips", "hottest rows (bank:row=flips)")
	for _, r := range results {
		var hot []string
		for i, fc := range r.HotRows {
			if i == 3 {
				break
			}
			hot = append(hot, fmt.Sprintf("%d:%d=%d", fc.Bank, fc.Row, fc.Flips))
		}
		attr.AddRow(r.Model, r.Mode, report.U(r.Device.FlipsInjected), strings.Join(hot, " "))
	}
	out.Tables = []*report.Table{matrix, attr}
	return out, nil
}
