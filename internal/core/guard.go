// Package core implements the PT-Guard mechanism of §IV-§VI: opportunistic
// MAC embedding in PTE cachelines on DRAM writes, integrity verification on
// page-table walks, MAC stripping on reads, collision tracking, the
// identifier and MAC-zero optimizations, and the best-effort correction
// engine.
//
// The Guard models the logic the paper places in the memory controller
// (Fig. 5). It operates on 64-byte line images plus their physical address
// and an isPTE flag (the request-bus tag added for page-table walks).
package core

import (
	"errors"
	"fmt"

	"ptguard/internal/mac"
	"ptguard/internal/obs"
	"ptguard/internal/pte"
)

// Paper default latencies and sizes.
const (
	// DefaultMACLatencyCycles is the QARMA-128 MAC latency at 3 GHz:
	// 3.4 ns ≈ 10 CPU cycles (§IV-F).
	DefaultMACLatencyCycles = 10
	// keySRAMBytes is the MAC key cost: 32 bytes (§IV-F).
	keySRAMBytes = 32
	// identifierSRAMBytes is the 56-bit identifier cost: 7 bytes (§V-E).
	identifierSRAMBytes = 7
	// zeroMACSRAMBytes is the precomputed MAC-zero cost: 12 bytes (§V-E).
	zeroMACSRAMBytes = 12
)

// Config configures a Guard. The zero value is not usable; call NewGuard.
type Config struct {
	// Format selects the PTE layout and bit masks (Table IV).
	Format pte.Format
	// Key is the 32-byte secret MAC key held in memory-controller SRAM.
	Key []byte
	// TagBits is the MAC width; 0 selects the paper's 96 bits (64 when
	// UseQARMA64 is set).
	TagBits int
	// UseQARMA64 computes MACs with the QARMA-64 cipher: the lower-latency
	// primitive natural for the §VII-A 64-bit design point.
	UseQARMA64 bool
	// Rounds is the QARMA forward round count; 0 selects the default.
	Rounds int
	// OptIdentifier enables the §V-A identifier optimization: the write
	// pattern match extends to the reserved bits, and data reads skip MAC
	// computation unless the identifier is present.
	OptIdentifier bool
	// Identifier is the predefined random identifier value; only the low
	// IdentifierBitsPerLine bits are used. Required if OptIdentifier.
	Identifier uint64
	// OptZeroMAC enables the §V-B zero-cacheline optimization.
	OptZeroMAC bool
	// EnableCorrection enables the §VI best-effort correction engine on
	// page-table-walk integrity failures.
	EnableCorrection bool
	// SoftMatchK is the fault-tolerant MAC budget: corrections accept a
	// MAC within k bit-flips (§VI-C). The paper uses 4. Ignored unless
	// EnableCorrection.
	SoftMatchK int
	// ZeroResetMaxBits is the "almost-zero PTE" threshold for correction
	// step 3; the paper resets PTEs with at most 4 protected bits set.
	ZeroResetMaxBits int
	// Ablation switches (DESIGN.md §5.5): disable individual correction
	// guess strategies to measure each one's contribution to the Fig. 9
	// correction rate. All false runs the full §VI-D algorithm.
	DisableFlipAndCheck bool
	DisableZeroReset    bool
	DisableFlagVote     bool
	DisableContiguity   bool
	// CTBEntries sizes the Collision Tracking Buffer; 0 selects 4.
	CTBEntries int
	// MACLatencyCycles is the MAC computation delay used by the timing
	// model; 0 selects 10 cycles.
	MACLatencyCycles int
}

func (c Config) withDefaults() Config {
	if c.TagBits == 0 {
		if c.UseQARMA64 {
			c.TagBits = 64
		} else {
			c.TagBits = mac.DefaultTagBits
		}
	}
	if c.CTBEntries == 0 {
		c.CTBEntries = DefaultCTBEntries
	}
	if c.MACLatencyCycles == 0 {
		c.MACLatencyCycles = DefaultMACLatencyCycles
	}
	if c.ZeroResetMaxBits == 0 {
		c.ZeroResetMaxBits = 4
	}
	return c
}

// Counters aggregates the Guard's observable activity, consumed by the
// timing model and the experiment harnesses.
type Counters struct {
	Writes           uint64 // DRAM writes observed
	Reads            uint64 // DRAM reads observed
	ProtectedWrites  uint64 // writes that matched the pattern (MAC embedded)
	WriteMACComputes uint64 // MAC computations on the write path
	ReadMACComputes  uint64 // MAC computations on the read path
	// ChunkEncrypts counts the modelled MAC unit's cipher chunk
	// encryptions: 4 per full QARMA-128 MAC, 8 per QARMA-64; correction
	// guesses re-encipher only dirty chunks. MAC memo hits do not reduce
	// it: the memo saves host time, not modelled MAC-unit work.
	ChunkEncrypts     uint64
	PTEWalkChecks     uint64 // page-table-walk integrity checks
	VerifyFailures    uint64 // uncorrectable integrity failures
	Corrections       uint64 // successful best-effort corrections
	CorrectionGuesses uint64 // total correction guesses attempted
	StrippedReads     uint64 // protected lines whose MAC was removed on read
	IdentifierSkips   uint64 // data reads that skipped MAC (no identifier)
	ZeroFastPathHits  uint64 // MAC computations avoided via MAC-zero
	CollisionsTracked uint64 // colliding lines inserted into the CTB

	// Correction-search telemetry (host-side batching, not part of the
	// mechanism): MACBatches counts the flip-and-check candidate waves
	// scored through the sliced cipher kernel; BatchedMACComputes counts the
	// MAC computations those waves served, a subset of ReadMACComputes.
	MACBatches         uint64
	BatchedMACComputes uint64
}

// Guard is the PT-Guard logic instance at the memory controller.
// Guard is not safe for concurrent use; the simulator serialises accesses
// as a real controller's single verification pipeline would.
type Guard struct {
	cfg     Config
	auth    *mac.Authenticator
	ctb     *ctb
	zeroTag mac.Tag
	ident   []byte // identifier bit-stream, sized to the identifier field
	ctr     Counters

	// o, when set, receives MAC embed/verify/strip and CTB hit/insert/full
	// trace events (nil = observability disabled; every emit is nil-safe).
	o *obs.Observer
	// batchHist records candidates-per-wave for every flip-and-check wave
	// (nil when observability is off; Observe on a nil histogram is a
	// no-op).
	batchHist *obs.Histogram

	// memo is the MAC memo (see memo.go), allocated on the first MAC
	// through lineMAC; memoHits and memoMisses count its lookups.
	// deferredMACs counts the write MACs OnWriteUnsealed charged but left
	// to Seal. All three are host-side telemetry, kept out of Counters so
	// no result moves.
	memo                 *[memoSlots]memoSlot
	memoHits, memoMisses uint64
	deferredMACs         uint64
}

// NewGuard validates cfg and builds a Guard.
func NewGuard(cfg Config) (*Guard, error) {
	cfg = cfg.withDefaults()
	if cfg.Format.Name == "" {
		return nil, errors.New("core: config needs a PTE format")
	}
	macCapacity := cfg.Format.MACBitsPerLine()
	if cfg.TagBits > macCapacity {
		return nil, fmt.Errorf("core: %d-bit tag exceeds %d-bit line capacity", cfg.TagBits, macCapacity)
	}
	if cfg.SoftMatchK < 0 || cfg.SoftMatchK >= cfg.TagBits {
		return nil, fmt.Errorf("core: soft-match budget %d outside [0, tag bits)", cfg.SoftMatchK)
	}
	opts := []mac.Option{mac.WithTagBits(cfg.TagBits)}
	if cfg.UseQARMA64 {
		opts = append(opts, mac.WithQARMA64())
	}
	if cfg.Rounds != 0 {
		opts = append(opts, mac.WithRounds(cfg.Rounds))
	}
	auth, err := mac.New(cfg.Key, opts...)
	if err != nil {
		return nil, err
	}
	g := &Guard{
		cfg:  cfg,
		auth: auth,
		ctb:  newCTB(cfg.CTBEntries),
	}
	if cfg.OptZeroMAC {
		g.zeroTag = auth.ZeroLineTag()
	}
	if cfg.OptIdentifier {
		identBits := cfg.Format.IdentifierBitsPerLine()
		g.ident = make([]byte, (identBits+7)/8)
		for i := range g.ident {
			g.ident[i] = byte(cfg.Identifier >> (8 * i))
		}
		for i := identBits; i < len(g.ident)*8; i++ {
			g.ident[i/8] &^= 1 << (i % 8)
		}
	}
	return g, nil
}

// Config returns the effective configuration.
func (g *Guard) Config() Config { return g.cfg }

// Counters returns a snapshot of the activity counters.
func (g *Guard) Counters() Counters { return g.ctr }

// ResetCounters zeroes the activity counters, the MAC memo's hit and miss
// counts (the memo's contents stay warm) and the deferred-MAC count.
func (g *Guard) ResetCounters() {
	g.ctr = Counters{}
	g.memoHits, g.memoMisses, g.deferredMACs = 0, 0, 0
}

// SetObserver attaches the observability subsystem; MAC and CTB activity
// emit trace events through it, and the correction search records its
// candidates-per-wave histogram. A nil observer detaches.
func (g *Guard) SetObserver(o *obs.Observer) {
	g.o = o
	if r := o.Registry(); r != nil {
		g.batchHist = r.Histogram("guard.batch_lines")
	} else {
		g.batchHist = nil
	}
}

// PublishObs feeds the Guard counters into the metric registry under
// "guard." (the obs snapshot path; a nil registry is a no-op).
func (g *Guard) PublishObs(r *obs.Registry) {
	if r == nil {
		return
	}
	r.SetCounter("guard.writes", g.ctr.Writes)
	r.SetCounter("guard.reads", g.ctr.Reads)
	r.SetCounter("guard.protected_writes", g.ctr.ProtectedWrites)
	r.SetCounter("guard.write_mac_computes", g.ctr.WriteMACComputes)
	r.SetCounter("guard.read_mac_computes", g.ctr.ReadMACComputes)
	r.SetCounter("guard.chunk_encrypts", g.ctr.ChunkEncrypts)
	r.SetCounter("guard.pte_walk_checks", g.ctr.PTEWalkChecks)
	r.SetCounter("guard.verify_failures", g.ctr.VerifyFailures)
	r.SetCounter("guard.corrections", g.ctr.Corrections)
	r.SetCounter("guard.correction_guesses", g.ctr.CorrectionGuesses)
	r.SetCounter("guard.stripped_reads", g.ctr.StrippedReads)
	r.SetCounter("guard.identifier_skips", g.ctr.IdentifierSkips)
	r.SetCounter("guard.zero_fastpath_hits", g.ctr.ZeroFastPathHits)
	r.SetCounter("guard.collisions_tracked", g.ctr.CollisionsTracked)
	r.SetCounter("guard.mac_batches", g.ctr.MACBatches)
	r.SetCounter("guard.batched_mac_computes", g.ctr.BatchedMACComputes)
	r.SetCounter("guard.mac_memo_hits", g.memoHits)
	r.SetCounter("guard.mac_memo_misses", g.memoMisses)
	r.SetCounter("guard.deferred_write_macs", g.deferredMACs)
	r.SetGauge("guard.ctb_occupancy", float64(g.ctb.len()))
}

// CTBLen returns the number of colliding lines currently tracked.
func (g *Guard) CTBLen() int { return g.ctb.len() }

// CTBRelease untracks a colliding line after the OS rewrote it (§VII-B).
func (g *Guard) CTBRelease(addr uint64) { g.ctb.remove(addr) }

// SRAMBytes returns the mechanism's SRAM cost: 52 bytes for the base design
// and 71 bytes with both optimizations (§V-E).
func (g *Guard) SRAMBytes() int {
	n := keySRAMBytes + g.ctb.sramBytes()
	if g.cfg.OptIdentifier {
		n += identifierSRAMBytes
	}
	if g.cfg.OptZeroMAC {
		n += zeroMACSRAMBytes
	}
	return n
}

// WriteResult describes what the Guard did to a line on the DRAM write path.
type WriteResult struct {
	// Line is the image actually written to DRAM (MAC embedded if
	// Protected), or the line as given if Deferred.
	Line pte.Line
	// Protected reports that the bit-pattern matched, so the stored image
	// carries a MAC (and identifier, if enabled).
	Protected bool
	// Deferred reports a protected line returned unsealed by
	// OnWriteUnsealed: Seal(addr, Line) is the image to store.
	Deferred bool
	// MACComputed reports that the write path ran the MAC unit.
	MACComputed bool
	// CollisionTracked reports the line was a colliding line and entered
	// the CTB.
	CollisionTracked bool
}

// OnWrite processes a 64-byte line on its way to DRAM (§IV-B, §IV-D).
// It returns ErrCTBFull if a colliding line cannot be tracked.
func (g *Guard) OnWrite(line pte.Line, addr uint64) (WriteResult, error) {
	return g.onWrite(line, addr, false)
}

// OnWriteUnsealed is OnWrite for a line whose first read may come much
// later, such as a page-table flush: it charges exactly what OnWrite
// charges (counters, trace events, CTB updates) but returns a protected
// line unsealed (WriteResult.Deferred), for the caller to store and Seal
// when something first reads it (dram.Device.WriteUnsealed). This is sound
// because a protected line's stored image is a pure function of the key,
// format, tag width, identifier, address and line: the write path reads no
// other guard state, so Seal computes the same image at any later time.
// Most flushed table lines are never read, so most of their MACs are never
// computed on the host; the modelled MAC unit is still charged at write
// time.
func (g *Guard) OnWriteUnsealed(line pte.Line, addr uint64) (WriteResult, error) {
	return g.onWrite(line, addr, true)
}

// Seal returns the image the write path stores for the protected line at
// addr: its MAC (MAC-zero for an all-zero line under §V-B) and, if
// enabled, the identifier embedded. It is a pure function of the guard's
// configuration, addr and line: it charges no counter, emits no event and
// touches neither the CTB nor the MAC memo, so a line may be sealed any
// time after OnWriteUnsealed charged its write.
func (g *Guard) Seal(addr uint64, line pte.Line) pte.Line {
	if g.cfg.OptZeroMAC && lineIsZero(line) {
		return g.embed(line, g.zeroTag)
	}
	return g.embed(line, g.auth.Compute(maskedImage(line, g.cfg.Format.ProtectedMask), addr))
}

// embed writes tag into the line's MAC field and, if enabled, the
// identifier into its identifier field.
func (g *Guard) embed(line pte.Line, tag mac.Tag) pte.Line {
	raw := tag.Raw()
	out := scatterField(line, g.cfg.Format.MACMask, raw[:tag.SizeBytes()])
	if g.cfg.OptIdentifier {
		out = scatterField(out, g.cfg.Format.IdentifierMask, g.ident)
	}
	return out
}

// matchesPattern reports whether the write path protects line: its MAC
// field (and, under §V-A, its identifier field) is all zero.
func (g *Guard) matchesPattern(line pte.Line) bool {
	f := g.cfg.Format
	return fieldIsZero(line, f.MACMask) &&
		(!g.cfg.OptIdentifier || fieldIsZero(line, f.IdentifierMask))
}

// onWrite is the write path proper. deferSeal returns a protected line
// unsealed (WriteResult.Deferred) after charging exactly what the eager
// path charges; the caller stores it for Seal to finish.
func (g *Guard) onWrite(line pte.Line, addr uint64, deferSeal bool) (WriteResult, error) {
	g.ctr.Writes++
	f := g.cfg.Format

	if g.matchesPattern(line) {
		res := WriteResult{Protected: true}
		zero := g.cfg.OptZeroMAC && lineIsZero(line)
		if zero {
			g.ctr.ZeroFastPathHits++
		} else {
			g.ctr.WriteMACComputes++
			res.MACComputed = true
			g.o.Emit("mac", "embed", uint64(g.cfg.MACLatencyCycles))
		}
		switch {
		case deferSeal:
			// The modelled MAC unit runs now; only the host's
			// computation of the tag waits for the line's first read.
			if !zero {
				g.ctr.ChunkEncrypts += uint64(g.auth.Chunks())
				g.deferredMACs++
			}
			res.Line, res.Deferred = line, true
		case zero:
			res.Line = g.embed(line, g.zeroTag)
		default:
			res.Line = g.embed(line, g.lineMAC(line, addr))
		}
		// A previously colliding address overwritten by a protected
		// line is no longer colliding.
		g.ctb.remove(addr)
		g.ctr.ProtectedWrites++
		return res, nil
	}

	// Not a protected line: check whether its existing bits collide with
	// the MAC the read path would compute (§IV-D). Under the identifier
	// optimization a read only consults the MAC when the identifier
	// matches, so only such lines can collide (§V-A).
	var buf [pte.LineBytes]byte
	collisionPossible := true
	if g.cfg.OptIdentifier {
		n := gatherFieldInto(&buf, line, f.IdentifierMask)
		collisionPossible = bytesEqual(buf[:n], g.ident)
	}
	res := WriteResult{Line: line}
	if collisionPossible {
		tag := g.lineMAC(line, addr)
		g.ctr.WriteMACComputes++
		res.MACComputed = true
		n := gatherFieldInto(&buf, line, f.MACMask)
		raw := tag.Raw()
		if bytesEqual(buf[:n], raw[:tag.SizeBytes()]) {
			if err := g.ctb.add(addr); err != nil {
				g.o.Emit("ctb", "full", 0)
				return res, err
			}
			res.CollisionTracked = true
			g.ctr.CollisionsTracked++
			g.o.Emit("ctb", "insert", 0)
		} else {
			g.ctb.remove(addr)
		}
	} else {
		g.ctb.remove(addr)
	}
	return res, nil
}

// ReadResult describes what the Guard did to a line on the DRAM read path.
type ReadResult struct {
	// Line is the image forwarded to the cache hierarchy. Meaningless if
	// CheckFailed: the line is not forwarded (§IV-F).
	Line pte.Line
	// CheckFailed mirrors the PTECheckFailed response-bus bit.
	CheckFailed bool
	// Stripped reports that an embedded MAC (and identifier) was removed.
	Stripped bool
	// MACComputed reports that the read path ran the MAC unit at least
	// once (the timing model charges MAC latency for it).
	MACComputed bool
	// Corrected reports the correction engine repaired the line.
	Corrected bool
	// Guesses is the number of correction guesses performed.
	Guesses int
}

// OnRead processes a 64-byte line arriving from DRAM. isPTE mirrors the
// request-bus bit set for page-table walks (§IV-F); such reads always
// verify integrity. Regular reads identify and strip embedded MACs.
func (g *Guard) OnRead(line pte.Line, addr uint64, isPTE bool) ReadResult {
	g.ctr.Reads++
	if g.ctb.contains(addr) {
		// Colliding line: forward unmodified, no MAC check (§IV-D).
		g.o.Emit("ctb", "hit", 0)
		return ReadResult{Line: line}
	}
	if isPTE {
		return g.readPTE(line, addr)
	}
	return g.readData(line, addr)
}

// readPTE is the page-table-walk path: verify, then strip (§IV-C).
func (g *Guard) readPTE(line pte.Line, addr uint64) ReadResult {
	g.ctr.PTEWalkChecks++
	f := g.cfg.Format
	var buf [pte.LineBytes]byte
	n := gatherFieldInto(&buf, line, f.MACMask)
	stored, _ := mac.TagFromBytes(buf[:n], g.cfg.TagBits)

	// Zero fast path (§V-B): an all-zero payload carrying MAC-zero.
	if g.cfg.OptZeroMAC && g.isZeroProtected(line, stored, 0) {
		g.ctr.ZeroFastPathHits++
		g.ctr.StrippedReads++
		g.o.Emit("mac", "zero", 0)
		return ReadResult{Line: g.strip(line), Stripped: true}
	}

	computed := g.lineMAC(line, addr)
	g.ctr.ReadMACComputes++
	g.o.Emit("mac", "verify", uint64(g.cfg.MACLatencyCycles))
	res := ReadResult{MACComputed: true}
	if computed.Equal(stored) {
		g.ctr.StrippedReads++
		res.Line = g.strip(line)
		res.Stripped = true
		g.o.Emit("mac", "strip", 0)
		return res
	}

	if g.cfg.EnableCorrection {
		corrected, guesses, ok := g.correct(line, addr, stored)
		res.Guesses = guesses
		g.ctr.CorrectionGuesses += uint64(guesses)
		if ok {
			g.ctr.Corrections++
			g.ctr.StrippedReads++
			res.Line = g.strip(corrected)
			res.Stripped = true
			res.Corrected = true
			return res
		}
	}
	g.ctr.VerifyFailures++
	res.CheckFailed = true
	return res
}

// readData is the regular-data path: detect an embedded MAC and remove it;
// otherwise forward the line untouched (§IV-C, §IV-E).
func (g *Guard) readData(line pte.Line, addr uint64) ReadResult {
	f := g.cfg.Format
	var buf [pte.LineBytes]byte
	if g.cfg.OptIdentifier {
		n := gatherFieldInto(&buf, line, f.IdentifierMask)
		if !bytesEqual(buf[:n], g.ident) {
			// No identifier: the common case; skip the MAC unit
			// entirely (§V-A).
			g.ctr.IdentifierSkips++
			return ReadResult{Line: line}
		}
	}
	n := gatherFieldInto(&buf, line, f.MACMask)
	stored, _ := mac.TagFromBytes(buf[:n], g.cfg.TagBits)
	if g.cfg.OptZeroMAC && g.isZeroProtected(line, stored, 0) {
		g.ctr.ZeroFastPathHits++
		g.ctr.StrippedReads++
		g.o.Emit("mac", "zero", 0)
		return ReadResult{Line: g.strip(line), Stripped: true}
	}
	computed := g.lineMAC(line, addr)
	g.ctr.ReadMACComputes++
	g.o.Emit("mac", "verify", uint64(g.cfg.MACLatencyCycles))
	res := ReadResult{MACComputed: true}
	if computed.Equal(stored) {
		g.ctr.StrippedReads++
		res.Line = g.strip(line)
		res.Stripped = true
		g.o.Emit("mac", "strip", 0)
		return res
	}
	// MAC mismatch on a data read: either the line never carried a MAC,
	// or it carried one and has bit flips. Forward unchanged either way —
	// no worse than an unprotected baseline (§IV-E).
	res.Line = line
	return res
}

// Audit reports whether the stored line image at addr would pass the
// page-table-walk integrity check without correction: a CTB-tracked
// colliding line audits clean, since the read path forwards it unchecked,
// and so do a zero-protected line and a line whose embedded MAC matches.
// It is a pure integrity scrub: it charges no counter, emits no event,
// touches neither the CTB nor the MAC memo and runs no correction, so a
// campaign can sweep a whole table population without perturbing the
// measured state.
func (g *Guard) Audit(line pte.Line, addr uint64) bool {
	if g.ctb.contains(addr) {
		return true
	}
	f := g.cfg.Format
	var buf [pte.LineBytes]byte
	n := gatherFieldInto(&buf, line, f.MACMask)
	stored, _ := mac.TagFromBytes(buf[:n], g.cfg.TagBits)
	if g.cfg.OptZeroMAC && g.isZeroProtected(line, stored, 0) {
		return true
	}
	return g.auth.Compute(maskedImage(line, f.ProtectedMask), addr).Equal(stored)
}

// isZeroProtected reports whether the line is an all-zero payload carrying
// MAC-zero (within k bit flips) in its MAC field.
func (g *Guard) isZeroProtected(line pte.Line, stored mac.Tag, k int) bool {
	cleared := clearField(line, g.cfg.Format.MACMask)
	if g.cfg.OptIdentifier {
		cleared = clearField(cleared, g.cfg.Format.IdentifierMask)
	}
	if !lineIsZero(cleared) {
		return false
	}
	ok, err := g.zeroTag.SoftMatch(stored, k)
	return err == nil && ok
}

// strip removes the MAC and identifier fields before the line is forwarded
// to the caches and TLB, restoring the architectural PTE image (§IV-C).
func (g *Guard) strip(line pte.Line) pte.Line {
	out := clearField(line, g.cfg.Format.MACMask)
	if g.cfg.OptIdentifier {
		out = clearField(out, g.cfg.Format.IdentifierMask)
	}
	return out
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
