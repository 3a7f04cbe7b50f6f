package fault

import (
	"fmt"
	"testing"

	"ptguard/internal/dram"
	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

func TestParseSpecs(t *testing.T) {
	cases := []struct {
		spec string
		name string
	}{
		{"uniform", "uniform(p=0.0078125)"},
		{"uniform:p=1/512", "uniform(p=0.001953125)"},
		{"1bit", "1bit"},
		{"2bit", "2bit"},
		{"3bit", "3bit"},
		{"kbit:n=5", "5bit"},
		{"burst", "burst(p=0.9,run=4)"},
		{"burst:p=0.5,run=2", "burst(p=0.5,run=2)"},
		{"dqpin:beats=5", "dqpin(p=0.9,beats=5)"},
		{"polarity", "polarity(p1to0=0.0078125,p0to1=0.001953125)"},
		{"polarity:p1to0=0", "polarity(p1to0=0,p0to1=0.001953125)"},
		{"rowsev:base=1/64", "rowsev(base=0.015625)"},
		{"targeted", "targeted(pfn,flips=2)"},
		{"targeted:field=flags,flips=1", "targeted(flags,flips=1)"},
	}
	for _, tc := range cases {
		m, err := Parse(tc.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.spec, err)
		}
		if m.Name() != tc.name {
			t.Errorf("Parse(%q).Name() = %q, want %q", tc.spec, m.Name(), tc.name)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"", "bogus", "uniform:p=2", "uniform:p=x", "kbit", "kbit:n=0",
		"burst:run=65", "dqpin:beats=0", "targeted:field=mac", "uniform:p", "uniform:p=NaN",
		// Models that can never flip a bit.
		"uniform:p=0", "burst:p=0", "dqpin:p=0", "rowsev:base=0", "polarity:p1to0=0,p0to1=0",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestModelsDeterministic(t *testing.T) {
	line := pte.Line{0x8000000000025, 0, 0x12345063, 0, 0, 0xFFFF0000067, 0, 0x1}
	loc := dram.Location{Bank: 3, Row: 101, Column: 7}
	for _, m := range DefaultTaxonomy() {
		a := m.FlipBits(stats.NewRNG(42), line, loc)
		b := m.FlipBits(stats.NewRNG(42), line, loc)
		if len(a) != len(b) {
			t.Fatalf("%s: nondeterministic flip count %d vs %d", m.Name(), len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: nondeterministic flips %v vs %v", m.Name(), a, b)
			}
		}
		for _, bit := range a {
			if bit < 0 || bit >= lineBits {
				t.Fatalf("%s: flip position %d outside [0, %d)", m.Name(), bit, lineBits)
			}
		}
	}
}

func TestExactBitsCount(t *testing.T) {
	rng := stats.NewRNG(7)
	for n := 1; n <= 4; n++ {
		m := ExactBits{N: n}
		for trial := 0; trial < 50; trial++ {
			flips := m.FlipBits(rng, pte.Line{}, dram.Location{})
			if len(flips) != n {
				t.Fatalf("ExactBits{%d} returned %d flips", n, len(flips))
			}
			seen := map[int]bool{}
			for _, b := range flips {
				if seen[b] {
					t.Fatalf("ExactBits{%d} returned duplicate bit %d", n, b)
				}
				seen[b] = true
			}
		}
	}
}

func TestBurstStaysInsideWord(t *testing.T) {
	rng := stats.NewRNG(9)
	m := Burst{PLine: 1, MaxRun: 8}
	for trial := 0; trial < 200; trial++ {
		flips := m.FlipBits(rng, pte.Line{}, dram.Location{})
		if len(flips) == 0 {
			t.Fatal("Burst with PLine=1 returned no flips")
		}
		word := flips[0] / 64
		for i, b := range flips {
			if b/64 != word {
				t.Fatalf("burst crosses word boundary: %v", flips)
			}
			if i > 0 && b != flips[i-1]+1 {
				t.Fatalf("burst not contiguous: %v", flips)
			}
		}
	}
}

func TestDQPinSamePinAcrossBeats(t *testing.T) {
	rng := stats.NewRNG(11)
	m := DQPin{PLine: 1, Beats: 4}
	for trial := 0; trial < 200; trial++ {
		flips := m.FlipBits(rng, pte.Line{}, dram.Location{})
		if len(flips) != 4 {
			t.Fatalf("DQPin beats=4 returned %d flips", len(flips))
		}
		pin := flips[0] % 64
		words := map[int]bool{}
		for _, b := range flips {
			if b%64 != pin {
				t.Fatalf("DQPin flips differ in pin position: %v", flips)
			}
			if words[b/64] {
				t.Fatalf("DQPin hit the same beat twice: %v", flips)
			}
			words[b/64] = true
		}
	}
}

func TestPolarityRespectsCellType(t *testing.T) {
	rng := stats.NewRNG(13)
	line := pte.Line{0xFFFFFFFFFFFFFFFF, 0, 0xF0F0F0F0F0F0F0F0, 0x0F0F0F0F0F0F0F0F, 0, 0xFFFFFFFFFFFFFFFF, 0, 0}
	m := Polarity{PTrue: 0.5, PAnti: 0.5}
	for row := 0; row < 2; row++ {
		loc := dram.Location{Row: row}
		for trial := 0; trial < 50; trial++ {
			for _, b := range m.FlipBits(rng, line, loc) {
				set := uint64(line[b/64])>>uint(b%64)&1 == 1
				if row%2 == 0 && !set {
					t.Fatalf("true-cell row flipped a stored 0 at bit %d", b)
				}
				if row%2 == 1 && set {
					t.Fatalf("anti-cell row flipped a stored 1 at bit %d", b)
				}
			}
		}
	}
}

func TestRowSeverityImmuneRows(t *testing.T) {
	m := RowSeverity{Base: 1, Factors: []float64{0}}
	rng := stats.NewRNG(17)
	for row := 0; row < 32; row++ {
		if flips := m.FlipBits(rng, pte.Line{}, dram.Location{Row: row}); len(flips) != 0 {
			t.Fatalf("immune row %d flipped %v", row, flips)
		}
	}
	// And with a single non-zero factor every row flips at Base.
	hot := RowSeverity{Base: 1, Factors: []float64{1}}
	if flips := hot.FlipBits(stats.NewRNG(17), pte.Line{}, dram.Location{}); len(flips) != lineBits {
		t.Fatalf("p=1 row flipped %d bits, want %d", len(flips), lineBits)
	}
}

func TestTargetedStaysInMask(t *testing.T) {
	rng := stats.NewRNG(19)
	pfn := TargetedPFN(3)
	flags := TargetedFlags(2)
	for trial := 0; trial < 200; trial++ {
		for _, tc := range []struct {
			m    Targeted
			mask uint64
		}{{pfn, pfn.Mask}, {flags, flags.Mask}} {
			flips := tc.m.FlipBits(rng, pte.Line{}, dram.Location{})
			if len(flips) == 0 {
				t.Fatalf("%s returned no flips", tc.m.Name())
			}
			entry := flips[0] / 64
			for _, b := range flips {
				if b/64 != entry {
					t.Fatalf("%s hit multiple PTEs: %v", tc.m.Name(), flips)
				}
				if tc.mask>>uint(b%64)&1 == 0 {
					t.Fatalf("%s flipped bit %d outside its mask", tc.m.Name(), b)
				}
			}
		}
	}
}

func TestOracleFlipParity(t *testing.T) {
	format, err := pte.FormatX86(40)
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(format)
	arch := pte.Line{0x25, 0x1067}
	o.Expect(0x1000, arch)

	// A bit flipped twice is clean: the judgement must be CleanPass.
	o.RecordFlip(0x1000, 7)
	o.RecordFlip(0x1000, 7)
	out, err := o.Judge(0x1000, arch, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if out != CleanPass {
		t.Fatalf("even-parity judgement = %v, want clean-pass", out)
	}
	if m := o.Matrix(); m.FlipsInjected != 2 || m.CleanPasses != 1 {
		t.Fatalf("matrix = %+v", m)
	}
}

func TestOracleOutcomes(t *testing.T) {
	format, err := pte.FormatX86(40)
	if err != nil {
		t.Fatal(err)
	}
	arch := pte.Line{0x8000000000025063}
	wrong := arch
	wrong[0] ^= 1 << pte.BitWritable // a protected payload bit

	cases := []struct {
		name        string
		flip        bool
		served      pte.Line
		checkFailed bool
		claimed     bool
		want        Outcome
	}{
		{"clean pass", false, arch, false, false, CleanPass},
		{"false alarm", false, arch, true, false, FalseAlarm},
		{"detected", true, pte.Line{}, true, false, Detected},
		{"corrected", true, arch, false, true, Corrected},
		{"benign uncovered flip", true, arch, false, false, Corrected},
		{"miscorrected", true, wrong, false, true, Miscorrected},
		{"silent corruption", true, wrong, false, false, SilentCorruption},
	}
	for _, tc := range cases {
		o := NewOracle(format)
		o.Expect(0, arch)
		if tc.flip {
			o.RecordFlip(0, 5)
		}
		out, jerr := o.Judge(0, tc.served, tc.checkFailed, tc.claimed)
		if jerr != nil {
			t.Fatalf("%s: %v", tc.name, jerr)
		}
		if out != tc.want {
			t.Errorf("%s: outcome = %v, want %v", tc.name, out, tc.want)
		}
	}

	o := NewOracle(format)
	if _, err := o.Judge(0x40, arch, false, false); err == nil {
		t.Error("Judge without ground truth succeeded, want error")
	}
}

// TestCampaignDetectionNoSilent is the acceptance check: under the uniform
// 1-, 2- and 3-bit models the detection-only Guard lets zero corrupted
// payloads through and raises zero false alarms.
func TestCampaignDetectionNoSilent(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		res, err := RunCampaign(CampaignConfig{
			Model: ExactBits{N: n},
			Lines: 300,
			Seed:  0xD5 + uint64(n),
		})
		if err != nil {
			t.Fatalf("%dbit: %v", n, err)
		}
		m := res.Matrix
		if m.Silent != 0 {
			t.Errorf("%dbit: %d silent corruptions, want 0", n, m.Silent)
		}
		if m.FalseAlarms != 0 {
			t.Errorf("%dbit: %d false alarms, want 0", n, m.FalseAlarms)
		}
		if m.Miscorrected != 0 {
			t.Errorf("%dbit: %d miscorrections in detection mode, want 0", n, m.Miscorrected)
		}
		if m.Faulty() != 300 {
			t.Errorf("%dbit: judged %d faulty lines, want 300", n, m.Faulty())
		}
		if m.FlipsInjected != uint64(n*res.Trials) {
			t.Errorf("%dbit: %d flips over %d trials", n, m.FlipsInjected, res.Trials)
		}
	}
}

// TestCampaignDetectsEveryModel is the property "PT-Guard detection is
// 100% under every fault model": for every DefaultTaxonomy model, with
// correction off and on, no corrupted payload is served (silently or as a
// wrong correction), no clean read raises an alarm, and every faulty line
// is detected or corrected.
func TestCampaignDetectsEveryModel(t *testing.T) {
	const lines = 100
	for _, m := range DefaultTaxonomy() {
		for _, correct := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/correct=%t", m.Name(), correct), func(t *testing.T) {
				res, err := RunCampaign(CampaignConfig{
					Model:            m,
					Lines:            lines,
					Seed:             0xA11,
					EnableCorrection: correct,
				})
				if err != nil {
					t.Fatal(err)
				}
				mx := res.Matrix
				if mx.Silent != 0 || mx.Miscorrected != 0 || mx.FalseAlarms != 0 {
					t.Errorf("unsafe outcomes %+v", mx)
				}
				if mx.Faulty() != lines || mx.CoveragePct() != 100 {
					t.Errorf("%d faulty lines at %.2f%% coverage, want %d at 100%%",
						mx.Faulty(), mx.CoveragePct(), lines)
				}
			})
		}
	}
}

// TestCampaignOneBitCorrection checks the §VI-F headline: with correction
// enabled, ~98-99%% of single-bit faults are corrected and none escape.
func TestCampaignOneBitCorrection(t *testing.T) {
	res, err := RunCampaign(CampaignConfig{
		Model:            ExactBits{N: 1},
		Lines:            400,
		Seed:             0xC0FFEE,
		EnableCorrection: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Matrix
	if m.Silent != 0 || m.Miscorrected != 0 || m.FalseAlarms != 0 {
		t.Fatalf("unsafe outcomes: %+v", m)
	}
	if pct := m.CorrectedPct(); pct < 95 {
		t.Errorf("1-bit correction rate %.1f%%, want >= 95%%", pct)
	}
	if m.CoveragePct() != 100 {
		t.Errorf("coverage %.1f%%, want 100%%", m.CoveragePct())
	}
	if res.Guesses == 0 {
		t.Error("correction campaign spent no guesses")
	}
}

// TestCampaignTinyTagMiscorrects shows the oracle catching miscorrections:
// with an 8-bit MAC, soft-match collisions let wrong payloads through, and
// only ground truth can tell them from real corrections.
func TestCampaignTinyTagMiscorrects(t *testing.T) {
	res, err := RunCampaign(CampaignConfig{
		Model:            ExactBits{N: 3},
		Lines:            200,
		Seed:             0xBAD,
		EnableCorrection: true,
		TagBits:          8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matrix.Miscorrected+res.Matrix.Silent == 0 {
		t.Errorf("8-bit MAC produced no unsafe outcomes over %d faulty lines: %+v",
			res.Matrix.Faulty(), res.Matrix)
	}
}

// TestCampaignFlipAccounting cross-checks the satellite telemetry: the
// oracle, the hammerer and the device must agree on the flip count, and the
// per-row attribution must sum to the total.
func TestCampaignFlipAccounting(t *testing.T) {
	res, err := RunCampaign(CampaignConfig{
		Model: Burst{PLine: 0.8, MaxRun: 4},
		Lines: 200,
		Seed:  0x7EA,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matrix.FlipsInjected != res.Device.FlipsInjected {
		t.Fatalf("oracle counted %d flips, device %d",
			res.Matrix.FlipsInjected, res.Device.FlipsInjected)
	}
	if len(res.HotRows) == 0 {
		t.Fatal("no hot rows attributed")
	}
	var hot uint64
	for _, r := range res.HotRows {
		hot += r.Flips
	}
	if hot == 0 || hot > res.Device.FlipsInjected {
		t.Fatalf("hot-row sum %d inconsistent with total %d", hot, res.Device.FlipsInjected)
	}
}

// TestCampaignTargetedDetected: PThammer-style PFN/flag aiming never yields
// a usable corrupted translation.
func TestCampaignTargetedDetected(t *testing.T) {
	for _, m := range []dram.FlipModel{TargetedPFN(2), TargetedFlags(2)} {
		res, err := RunCampaign(CampaignConfig{
			Model:            m,
			Lines:            200,
			Seed:             0x717,
			EnableCorrection: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if res.Matrix.Silent != 0 || res.Matrix.Miscorrected != 0 {
			t.Errorf("%s: unsafe outcomes %+v", m.Name(), res.Matrix)
		}
	}
}
