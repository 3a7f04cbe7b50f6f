package fault

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"ptguard/internal/dram"
)

// Parse builds a flip model from a spec string of the form
// "name" or "name:key=value,key=value". Probabilities accept fractions
// ("1/128") or decimals ("0.0078125").
//
// Supported specs:
//
//	uniform[:p=1/128]          per-bit Bernoulli (§VI-F default)
//	1bit | 2bit | 3bit         exactly N uniform flips (paper's N-bit models)
//	kbit:n=N                   exactly N uniform flips, any N
//	burst[:p=0.9,run=4]        word-aligned burst of adjacent bits
//	dqpin[:p=0.9,beats=3]      one DQ pin failing across transfer beats
//	polarity[:p1to0=1/128,p0to1=1/512]  true/anti-cell data-dependent flips
//	rowsev[:base=1/256]        per-row severity variation
//	targeted[:field=pfn,flips=2]        PThammer-style PFN/flag aiming
func Parse(spec string) (dram.FlipModel, error) {
	name, args, _ := strings.Cut(strings.TrimSpace(spec), ":")
	kv, err := parseArgs(args)
	if err != nil {
		return nil, fmt.Errorf("fault: spec %q: %w", spec, err)
	}
	m, err := build(strings.ToLower(name), kv)
	if err != nil {
		return nil, fmt.Errorf("fault: spec %q: %w", spec, err)
	}
	return m, nil
}

// Specs lists the supported model names for CLI help.
func Specs() []string {
	return []string{
		"uniform[:p=1/128]",
		"1bit | 2bit | 3bit | kbit:n=N",
		"burst[:p=0.9,run=4]",
		"dqpin[:p=0.9,beats=3]",
		"polarity[:p1to0=1/128,p0to1=1/512]",
		"rowsev[:base=1/256]",
		"targeted[:field=pfn|flags,flips=2]",
	}
}

// DefaultTaxonomy is the model sweep a fault campaign runs when none is
// requested: the paper's uniform and N-bit models plus every spatial and
// targeted shape in the taxonomy.
func DefaultTaxonomy() []dram.FlipModel {
	return []dram.FlipModel{
		ExactBits{N: 1},
		ExactBits{N: 2},
		ExactBits{N: 3},
		Uniform{P: 1.0 / 128},
		Burst{PLine: 0.9, MaxRun: 4},
		DQPin{PLine: 0.9, Beats: 3},
		Polarity{PTrue: 1.0 / 128, PAnti: 1.0 / 512},
		RowSeverity{Base: 1.0 / 256},
		TargetedPFN(2),
		TargetedFlags(2),
	}
}

func build(name string, kv map[string]string) (dram.FlipModel, error) {
	switch name {
	case "uniform":
		p, err := probArg(kv, "p", 1.0/128)
		if err != nil {
			return nil, err
		}
		if p == 0 {
			return nil, errors.New("uniform p=0 never flips a bit")
		}
		return Uniform{P: p}, nil
	case "1bit", "2bit", "3bit":
		n := int(name[0] - '0')
		return ExactBits{N: n}, nil
	case "kbit":
		n, err := intArg(kv, "n", 0)
		if err != nil {
			return nil, err
		}
		if n <= 0 {
			return nil, fmt.Errorf("kbit needs n>=1, got %d", n)
		}
		return ExactBits{N: n}, nil
	case "burst":
		p, err := probArg(kv, "p", 0.9)
		if err != nil {
			return nil, err
		}
		run, err := intArg(kv, "run", 4)
		if err != nil {
			return nil, err
		}
		if run <= 0 || run > 64 {
			return nil, fmt.Errorf("burst run %d outside [1, 64]", run)
		}
		if p == 0 {
			return nil, errors.New("burst p=0 never flips a bit")
		}
		return Burst{PLine: p, MaxRun: run}, nil
	case "dqpin":
		p, err := probArg(kv, "p", 0.9)
		if err != nil {
			return nil, err
		}
		beats, err := intArg(kv, "beats", 3)
		if err != nil {
			return nil, err
		}
		if beats <= 0 || beats > 8 {
			return nil, fmt.Errorf("dqpin beats %d outside [1, 8]", beats)
		}
		if p == 0 {
			return nil, errors.New("dqpin p=0 never flips a bit")
		}
		return DQPin{PLine: p, Beats: beats}, nil
	case "polarity":
		pt, err := probArg(kv, "p1to0", 1.0/128)
		if err != nil {
			return nil, err
		}
		pa, err := probArg(kv, "p0to1", 1.0/512)
		if err != nil {
			return nil, err
		}
		if pt == 0 && pa == 0 {
			return nil, errors.New("polarity p1to0=0,p0to1=0 never flips a bit")
		}
		return Polarity{PTrue: pt, PAnti: pa}, nil
	case "rowsev":
		base, err := probArg(kv, "base", 1.0/256)
		if err != nil {
			return nil, err
		}
		if base == 0 {
			return nil, errors.New("rowsev base=0 never flips a bit")
		}
		return RowSeverity{Base: base}, nil
	case "targeted":
		flips, err := intArg(kv, "flips", 2)
		if err != nil {
			return nil, err
		}
		if flips <= 0 {
			return nil, fmt.Errorf("targeted needs flips>=1, got %d", flips)
		}
		field := kv["field"]
		if field == "" {
			field = "pfn"
		}
		switch field {
		case "pfn":
			return TargetedPFN(flips), nil
		case "flags":
			return TargetedFlags(flips), nil
		default:
			return nil, fmt.Errorf("unknown targeted field %q (want pfn or flags)", field)
		}
	default:
		return nil, fmt.Errorf("unknown model %q", name)
	}
}

func parseArgs(args string) (map[string]string, error) {
	kv := make(map[string]string)
	for _, part := range strings.Split(args, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("malformed argument %q (want key=value)", part)
		}
		kv[strings.ToLower(strings.TrimSpace(k))] = strings.TrimSpace(v)
	}
	return kv, nil
}

func probArg(kv map[string]string, key string, def float64) (float64, error) {
	raw, ok := kv[key]
	if !ok {
		return def, nil
	}
	v, err := parseProb(raw)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", key, err)
	}
	return v, nil
}

// parseProb parses "1/128" fractions or plain decimals into a probability.
func parseProb(raw string) (float64, error) {
	var v float64
	if num, den, ok := strings.Cut(raw, "/"); ok {
		n, err1 := strconv.ParseFloat(num, 64)
		d, err2 := strconv.ParseFloat(den, 64)
		if err1 != nil || err2 != nil || d == 0 {
			return 0, fmt.Errorf("invalid fraction %q", raw)
		}
		v = n / d
	} else {
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return 0, fmt.Errorf("invalid probability %q", raw)
		}
		v = f
	}
	if !(v >= 0 && v <= 1) { // NaN fails too
		return 0, fmt.Errorf("probability %q outside [0, 1]", raw)
	}
	return v, nil
}

func intArg(kv map[string]string, key string, def int) (int, error) {
	raw, ok := kv[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("%s: invalid integer %q", key, raw)
	}
	return v, nil
}
