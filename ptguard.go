// Package ptguard is a simulation library reproducing PT-Guard
// (Saxena et al., DSN 2023): integrity-protected page tables that defend
// against breakthrough Rowhammer attacks by embedding a 96-bit MAC in the
// unused PFN bits of each PTE cacheline.
//
// The package exposes three layers:
//
//   - Guard: the memory-controller mechanism itself — opportunistic MAC
//     embedding on writes, verification on page-table walks, MAC stripping
//     on reads, collision tracking, the identifier/MAC-zero optimizations
//     (§V) and best-effort correction (§VI). It operates on raw 64-byte
//     line images plus their physical address.
//
//   - Full-system simulation: RunWorkload / CompareWorkload replay the
//     paper's SPEC-2017 and GAP evaluation (§III, Fig. 6/7) on the bundled
//     gem5-like memory-system model.
//
//   - Analysis: the analytic security model of §VI-E (Eqs. 1 and 2) and
//     end-to-end Rowhammer attack demos.
package ptguard

import (
	"errors"
	"fmt"

	"ptguard/internal/attack"
	"ptguard/internal/core"
	"ptguard/internal/mac"
	"ptguard/internal/pte"
	"ptguard/internal/sim"
	"ptguard/internal/workload"
)

// LineBytes is the cacheline size the guard operates on.
const LineBytes = pte.LineBytes

// KeySize is the secret key size in bytes (32 bytes of SRAM, §IV-F).
const KeySize = mac.KeySize

// ErrIntegrityViolation is returned when a page-table walk reads a tampered
// PTE line that correction (if enabled) could not repair; hardware raises
// the PTECheckFailed exception (§IV-F).
var ErrIntegrityViolation = errors.New("ptguard: PTE integrity violation")

// ErrCollisionBufferFull signals the CTB overflowed and the system must
// re-key (§IV-F, §VII-B).
var ErrCollisionBufferFull = core.ErrCTBFull

// Option configures a Guard.
type Option func(*options)

type options struct {
	physAddrBits int
	tagBits      int
	macLatency   int
	ctbEntries   int
	identifier   uint64
	optIdent     bool
	optZero      bool
	correction   bool
	softK        int
}

// WithPhysAddrBits sets M, the machine's physical address width (default 40,
// i.e. 1 TB — the largest client configuration, Table IV).
func WithPhysAddrBits(m int) Option { return func(o *options) { o.physAddrBits = m } }

// WithMACWidth sets the MAC width in bits (default 96; §VII-A discusses 64).
func WithMACWidth(bits int) Option { return func(o *options) { o.tagBits = bits } }

// WithMACLatency sets the MAC computation latency in CPU cycles (default 10).
func WithMACLatency(cycles int) Option { return func(o *options) { o.macLatency = cycles } }

// WithCTBEntries sizes the Collision Tracking Buffer (default 4).
func WithCTBEntries(n int) Option { return func(o *options) { o.ctbEntries = n } }

// WithIdentifier enables the §V-A identifier optimization with the given
// 56-bit random identifier.
func WithIdentifier(id uint64) Option {
	return func(o *options) { o.optIdent, o.identifier = true, id }
}

// WithZeroMAC enables the §V-B precomputed MAC-zero optimization.
func WithZeroMAC() Option { return func(o *options) { o.optZero = true } }

// WithCorrection enables §VI best-effort correction with a soft-match
// budget of k MAC bit-faults (the paper uses 4).
func WithCorrection(k int) Option {
	return func(o *options) { o.correction, o.softK = true, k }
}

// Guard is a PT-Guard instance: the logic the paper adds to the memory
// controller. Not safe for concurrent use.
type Guard struct {
	inner *core.Guard
}

// New builds a Guard with the given 32-byte secret key.
func New(key []byte, opts ...Option) (*Guard, error) {
	o := options{physAddrBits: 40}
	for _, opt := range opts {
		opt(&o)
	}
	format, err := pte.FormatX86(o.physAddrBits)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{
		Format:           format,
		Key:              key,
		TagBits:          o.tagBits,
		MACLatencyCycles: o.macLatency,
		CTBEntries:       o.ctbEntries,
		OptIdentifier:    o.optIdent,
		Identifier:       o.identifier,
		OptZeroMAC:       o.optZero,
		EnableCorrection: o.correction,
		SoftMatchK:       o.softK,
	}
	inner, err := core.NewGuard(cfg)
	if err != nil {
		return nil, err
	}
	return &Guard{inner: inner}, nil
}

// WriteInfo describes what happened on the DRAM write path.
type WriteInfo struct {
	// Protected reports the line matched the PTE bit pattern and carries
	// an embedded MAC (and identifier, if enabled).
	Protected bool
	// CollisionTracked reports the line's data collides with its own MAC
	// and was recorded in the CTB.
	CollisionTracked bool
}

// ProtectOnWrite processes a 64-byte line on its way to DRAM (§IV-B): if
// its pattern bits are zero, the MAC is embedded. The returned image is
// what DRAM should store. ErrCollisionBufferFull demands a re-key.
func (g *Guard) ProtectOnWrite(line [LineBytes]byte, addr uint64) ([LineBytes]byte, WriteInfo, error) {
	res, err := g.inner.OnWrite(pte.LineFromBytes(line), addr)
	info := WriteInfo{Protected: res.Protected, CollisionTracked: res.CollisionTracked}
	return res.Line.Bytes(), info, err
}

// WalkInfo describes a verified page-table-walk read.
type WalkInfo struct {
	// Corrected reports the correction engine repaired bit-flips.
	Corrected bool
	// Guesses is the number of correction guesses spent.
	Guesses int
}

// VerifyWalkRead processes a PTE line arriving from DRAM on a page-table
// walk (§IV-C): the MAC is verified and stripped. A tampered line yields
// ErrIntegrityViolation and must not be consumed.
func (g *Guard) VerifyWalkRead(line [LineBytes]byte, addr uint64) ([LineBytes]byte, WalkInfo, error) {
	res := g.inner.OnRead(pte.LineFromBytes(line), addr, true)
	if res.CheckFailed {
		return [LineBytes]byte{}, WalkInfo{Guesses: res.Guesses}, ErrIntegrityViolation
	}
	return res.Line.Bytes(), WalkInfo{Corrected: res.Corrected, Guesses: res.Guesses}, nil
}

// FilterDataRead processes a regular data read (§IV-C/E): if the line
// carries an embedded MAC it is stripped; otherwise the line passes through
// untouched. stripped reports which happened.
func (g *Guard) FilterDataRead(line [LineBytes]byte, addr uint64) (out [LineBytes]byte, stripped bool) {
	res := g.inner.OnRead(pte.LineFromBytes(line), addr, false)
	return res.Line.Bytes(), res.Stripped
}

// ReleaseCollision untracks a colliding line after the OS overwrote it with
// benign data (§VII-B).
func (g *Guard) ReleaseCollision(addr uint64) { g.inner.CTBRelease(addr) }

// SRAMBytes returns the hardware SRAM budget: 52 bytes for the base design,
// 71 with both optimizations (§V-E).
func (g *Guard) SRAMBytes() int { return g.inner.SRAMBytes() }

// MaxCorrectionGuesses returns G_max (372 for x86_64 with M=40, §VI-D).
func (g *Guard) MaxCorrectionGuesses() int { return g.inner.GMax() }

// Counters exposes the guard's activity counters.
func (g *Guard) Counters() core.Counters { return g.inner.Counters() }

// --- Full-system simulation -------------------------------------------------

// Mode selects the protection configuration for simulations.
type Mode = sim.Mode

// Simulation modes.
const (
	// ModeBaseline is the unprotected system.
	ModeBaseline = sim.Baseline
	// ModePTGuard is the base design (§IV).
	ModePTGuard = sim.PTGuard
	// ModePTGuardOptimized adds the §V optimizations.
	ModePTGuardOptimized = sim.PTGuardOptimized
)

// SimResult is one simulated run's measurements.
type SimResult = sim.Result

// WorkloadNames lists the paper's 25 evaluation benchmarks (§III).
func WorkloadNames() []string {
	profiles := workload.Profiles()
	names := make([]string, len(profiles))
	for i, p := range profiles {
		names[i] = p.Name
	}
	return names
}

// RunWorkload simulates `instructions` of the named benchmark after a
// warm-up of warmup instructions under the given mode.
func RunWorkload(name string, mode Mode, warmup, instructions int, seed uint64) (SimResult, error) {
	prof, err := workload.ProfileByName(name)
	if err != nil {
		return SimResult{}, err
	}
	s, err := sim.NewSystem(sim.Config{Mode: mode, Seed: seed}, prof)
	if err != nil {
		return SimResult{}, err
	}
	if warmup > 0 {
		if _, err := s.Run(warmup); err != nil {
			return SimResult{}, err
		}
		s.ResetStats()
	}
	return s.Run(instructions)
}

// CompareWorkload measures the named benchmark's slowdown under the
// requested modes against the unprotected baseline (the Fig. 6/7 unit).
func CompareWorkload(name string, warmup, instructions int, seed uint64, macLatency int, modes ...Mode) (sim.Comparison, error) {
	prof, err := workload.ProfileByName(name)
	if err != nil {
		return sim.Comparison{}, err
	}
	return sim.Compare(prof, warmup, instructions, seed, macLatency, modes)
}

// --- Security analysis -------------------------------------------------------

// EffectiveMACBits returns n_eff for an n-bit MAC tolerating k faults over
// gMax correction guesses (Eq. 1; 96/4/372 → ~66 bits).
func EffectiveMACBits(n, k, gMax int) (float64, error) {
	return mac.EffectiveMACBits(n, k, gMax)
}

// UncorrectableMACProb returns Eq. 2: P(more than k flips in an n-bit MAC)
// at per-bit flip probability p.
func UncorrectableMACProb(n, k int, p float64) (float64, error) {
	return mac.UncorrectableMACProb(n, k, p)
}

// AttackYears estimates the expected attack time against an effective
// nEff-bit MAC at attemptNs nanoseconds per attempt (§IV-G).
func AttackYears(nEff, attemptNs float64) float64 { return mac.AttackYears(nEff, attemptNs) }

// --- Attack demos ------------------------------------------------------------

// AttackOutcome reports an end-to-end exploit attempt.
type AttackOutcome struct {
	// Detected reports PT-Guard caught the tampering.
	Detected bool
	// ExploitSucceeded reports the attacker obtained a tampered
	// translation or permission.
	ExploitSucceeded bool
	// Description explains the outcome.
	Description string
}

// DemoPrivilegeEscalation mounts the Fig. 1 Rowhammer exploit against a
// simulated victim, with or without PT-Guard at the memory controller.
func DemoPrivilegeEscalation(protected bool, seed uint64) (AttackOutcome, error) {
	w, err := attack.NewWorld(protected, false, seed)
	if err != nil {
		return AttackOutcome{}, err
	}
	out, err := w.PrivilegeEscalation(attack.VictimVBase)
	if err != nil {
		return AttackOutcome{}, err
	}
	return AttackOutcome(out), nil
}

// DemoMetadataAttack flips a PTE metadata bit (e.g. user/supervisor) on a
// victim mapping and reports whether the tampered permission was consumed.
func DemoMetadataAttack(protected bool, bit int, seed uint64) (AttackOutcome, error) {
	if bit < 0 || bit > 63 {
		return AttackOutcome{}, fmt.Errorf("ptguard: bit %d outside [0, 63]", bit)
	}
	w, err := attack.NewWorld(protected, false, seed)
	if err != nil {
		return AttackOutcome{}, err
	}
	out, err := w.MetadataAttack(attack.VictimVBase, bit)
	if err != nil {
		return AttackOutcome{}, err
	}
	return AttackOutcome(out), nil
}
