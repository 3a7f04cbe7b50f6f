package fault

import (
	"fmt"

	"ptguard/internal/pte"
)

// Outcome classifies one integrity-checked read against the oracle's
// ground truth.
type Outcome int

// Confusion-matrix cells. The first two cover fault-free reads, the rest
// faulty ones.
const (
	// CleanPass: no injected fault, the line was served unflagged.
	CleanPass Outcome = iota
	// FalseAlarm: no injected fault, but detection fired. Must be zero —
	// a MAC never rejects the value it was computed over.
	FalseAlarm
	// Detected: fault present, PTECheckFailed raised, nothing served.
	Detected
	// Corrected: fault present, the architectural payload was served.
	Corrected
	// Miscorrected: fault present, the correction engine claimed success
	// but served a wrong payload (needs a soft-MAC collision, §VI-D).
	Miscorrected
	// SilentCorruption: fault present, a wrong payload passed verification
	// with no detection and no correction claim (a hard MAC collision).
	SilentCorruption
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case CleanPass:
		return "clean-pass"
	case FalseAlarm:
		return "false-alarm"
	case Detected:
		return "detected"
	case Corrected:
		return "corrected"
	case Miscorrected:
		return "miscorrected"
	case SilentCorruption:
		return "silent-corruption"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Matrix is the per-campaign confusion matrix.
type Matrix struct {
	CleanPasses   uint64 `json:"clean_passes"`
	FalseAlarms   uint64 `json:"false_alarms"`
	Detected      uint64 `json:"detected"`
	Corrected     uint64 `json:"corrected"`
	Miscorrected  uint64 `json:"miscorrected"`
	Silent        uint64 `json:"silent_corruptions"`
	FlipsInjected uint64 `json:"flips_injected"`
}

// Faulty returns the number of reads that had at least one net flip.
func (m Matrix) Faulty() uint64 {
	return m.Detected + m.Corrected + m.Miscorrected + m.Silent
}

// CorrectedPct returns corrected / faulty: the Fig. 9 y-axis.
func (m Matrix) CorrectedPct() float64 {
	if f := m.Faulty(); f > 0 {
		return 100 * float64(m.Corrected) / float64(f)
	}
	return 0
}

// CoveragePct returns (detected + corrected) / faulty: the fraction of
// faulty lines that could not harm the system.
func (m Matrix) CoveragePct() float64 {
	if f := m.Faulty(); f > 0 {
		return 100 * float64(m.Detected+m.Corrected) / float64(f)
	}
	return 0
}

// Add accumulates another matrix into m.
func (m *Matrix) Add(o Matrix) {
	m.CleanPasses += o.CleanPasses
	m.FalseAlarms += o.FalseAlarms
	m.Detected += o.Detected
	m.Corrected += o.Corrected
	m.Miscorrected += o.Miscorrected
	m.Silent += o.Silent
	m.FlipsInjected += o.FlipsInjected
}

// Oracle is the campaign ground truth: it learns every line's architectural
// content, records every injected flip (via dram.Hammerer's observer hook),
// and classifies each Guard verdict into the confusion matrix. Because it
// tracks flip *parity* per bit, a bit flipped twice correctly counts as
// clean.
// Oracle is not safe for concurrent use; each campaign job owns one.
type Oracle struct {
	format pte.Format
	truth  map[uint64]pte.Line
	flips  map[uint64]map[int]bool
	m      Matrix
}

// NewOracle builds an oracle judging payloads under the given PTE format
// (only format.ProtectedMask bits count as payload, per Table IV).
func NewOracle(format pte.Format) *Oracle {
	return &Oracle{
		format: format,
		truth:  make(map[uint64]pte.Line),
		flips:  make(map[uint64]map[int]bool),
	}
}

// Expect registers the architectural (pre-protection) content of the line
// at addr. Judgements for unregistered addresses return an error.
func (o *Oracle) Expect(addr uint64, arch pte.Line) {
	o.truth[addr/pte.LineBytes*pte.LineBytes] = arch
}

// RecordFlip toggles the ground-truth flip parity of one bit; wire it to
// dram.Hammerer.SetObserver so every injection path reports here.
func (o *Oracle) RecordFlip(addr uint64, bit int) {
	key := addr / pte.LineBytes * pte.LineBytes
	bits := o.flips[key]
	if bits == nil {
		bits = make(map[int]bool)
		o.flips[key] = bits
	}
	if bits[bit] {
		delete(bits, bit)
	} else {
		bits[bit] = true
	}
	o.m.FlipsInjected++
}

// Judge classifies one read of the line at addr: served is the line the
// Guard forwarded, checkFailed mirrors PTECheckFailed, and
// correctionClaimed reports that the correction engine believed it repaired
// the line. The verdict is accumulated into the matrix and the line's flip
// record is consumed (the campaign restores the pristine image afterwards).
func (o *Oracle) Judge(addr uint64, served pte.Line, checkFailed, correctionClaimed bool) (Outcome, error) {
	key := addr / pte.LineBytes * pte.LineBytes
	arch, ok := o.truth[key]
	if !ok {
		return 0, fmt.Errorf("fault: no ground truth registered for line %#x", key)
	}
	faulty := len(o.flips[key]) > 0
	delete(o.flips, key)

	var out Outcome
	switch {
	case !faulty && checkFailed:
		out = FalseAlarm
	case !faulty:
		out = CleanPass
	case checkFailed:
		out = Detected
	case o.payloadMatches(served, arch):
		out = Corrected
	case correctionClaimed:
		out = Miscorrected
	default:
		out = SilentCorruption
	}
	o.bump(out)
	return out, nil
}

func (o *Oracle) bump(out Outcome) {
	switch out {
	case CleanPass:
		o.m.CleanPasses++
	case FalseAlarm:
		o.m.FalseAlarms++
	case Detected:
		o.m.Detected++
	case Corrected:
		o.m.Corrected++
	case Miscorrected:
		o.m.Miscorrected++
	case SilentCorruption:
		o.m.Silent++
	}
}

// payloadMatches compares only the MAC-covered bits: the accessed bit and
// other uncovered fields are out of scope by construction (Table IV).
func (o *Oracle) payloadMatches(got, want pte.Line) bool {
	for i := range got {
		if uint64(got[i])&o.format.ProtectedMask != uint64(want[i])&o.format.ProtectedMask {
			return false
		}
	}
	return true
}

// Matrix returns a snapshot of the confusion matrix.
func (o *Oracle) Matrix() Matrix { return o.m }
