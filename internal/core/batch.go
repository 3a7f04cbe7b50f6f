package core

import (
	"ptguard/internal/mac"
	"ptguard/internal/pte"
)

// This file holds the Guard's batch entry points. Campaign setup flushes,
// rekey sweeps and table audits touch thousands of PTE lines back to back;
// feeding their MAC computations through mac.ComputeBatch (and, below it,
// the bit-sliced qarma.EncryptBlocks kernel) amortises the cipher across up
// to 64 lanes per pass.
//
// Equivalence contract: OnReadBatch is bit-identical to calling OnRead
// sequentially — same results, same counters, same CTB state, same trace
// events. OnWriteBatch is too, with one difference: it returns each
// protected line unsealed (WriteResult.Deferred), and Seal(addr, Line) is
// the image OnWrite would have returned. A protected line's stored image
// is a pure function of the key, format, tag width, identifier, address and
// line, and the write path reads no other guard state, so the host can
// compute it whenever something first reads the stored bytes (dram.Device
// seals on first read). Most flushed table lines are never read, so most
// of their MACs are never computed on the host; the modelled MAC unit is
// still charged at write time.
//
// The design that makes this safe is a two-pass structure:
//
//  1. classify every line and batch-compute the MACs the scalar path would
//     compute (for writes, only the collision-check MACs of unprotected
//     lines, which decide the CTB state at write time). Whether a line
//     needs the MAC unit depends only on the line's own content
//     (bit-pattern match, identifier match, zero fast path) and, for reads,
//     on CTB membership — never on what an *earlier line in the batch* did:
//     writes decide before any CTB mutation, and reads never mutate the CTB
//     at all.
//  2. replay the scalar path per line in order, handing each its
//     precomputed tag. All state mutations (counters, CTB add/remove, trace
//     events) happen here, in the sequential order.
//
// The equivalence is pinned by the batched-vs-scalar properties in
// batch_test.go.

// batchScratch is the Guard-owned reusable marshalling state of the batch
// entry points; it grows to the largest batch seen and is then reused, so
// steady-state batches perform zero heap allocations.
type batchScratch struct {
	imgs  [][mac.LineBytes]byte // masked MAC inputs of the lines needing computation
	addrs []uint64              // their line addresses
	tags  []mac.Tag             // ComputeBatch output, parallel to imgs
	slot  []int                 // per batch line: index into imgs, or -1 (no MAC needed)
}

func (s *batchScratch) reset() {
	s.imgs = s.imgs[:0]
	s.addrs = s.addrs[:0]
	s.slot = s.slot[:0]
}

// push records that the line at batch position len(slot) needs a MAC over
// img at addr.
func (s *batchScratch) push(img [mac.LineBytes]byte, addr uint64) {
	s.slot = append(s.slot, len(s.imgs))
	s.imgs = append(s.imgs, img)
	s.addrs = append(s.addrs, addr)
}

func (s *batchScratch) skip() { s.slot = append(s.slot, -1) }

// pre returns the precomputed tag for batch position i, or nil when the
// classification pass decided no MAC is needed.
func (s *batchScratch) pre(i int) *mac.Tag {
	if k := s.slot[i]; k >= 0 {
		return &s.tags[k]
	}
	return nil
}

// batchMAC runs one sliced pass over the gathered images and accounts the
// batch-path telemetry (pass count and lines-per-batch histogram).
func (g *Guard) batchMAC() {
	n := len(g.bs.imgs)
	if n == 0 {
		return
	}
	if cap(g.bs.tags) < n {
		g.bs.tags = make([]mac.Tag, n)
	}
	g.bs.tags = g.bs.tags[:n]
	g.auth.ComputeBatch(g.bs.tags, g.bs.imgs, g.bs.addrs)
	g.ctr.MACBatches++
	g.batchHist.Observe(uint64(n))
}

// OnWriteBatch processes many lines through the DRAM write path in one
// call. res, lines and addrs must have equal length. It charges exactly
// what calling OnWrite per line in order charges, returns protected lines
// unsealed for the caller to store and Seal on first read, and MACs the
// collision checks of unprotected lines through the batch engine. The
// returned error is the first per-line error (sequential callers' flush
// loops keep writing past an error, and so does this), and failed counts
// the lines that would have returned one.
func (g *Guard) OnWriteBatch(res []WriteResult, lines []pte.Line, addrs []uint64) (failed int, err error) {
	if len(res) != len(lines) || len(addrs) != len(lines) {
		panic("core: OnWriteBatch slice lengths differ")
	}
	f := g.cfg.Format
	s := &g.bs
	s.reset()

	// Pass 1: classify. Only an unprotected line whose bits could collide
	// with a stored MAC needs its MAC now — a content-only decision.
	var buf [pte.LineBytes]byte
	for i := range lines {
		need := !g.matchesPattern(lines[i])
		if need && g.cfg.OptIdentifier {
			n := gatherFieldInto(&buf, lines[i], f.IdentifierMask)
			need = bytesEqual(buf[:n], g.ident)
		}
		if need {
			s.push(maskedImage(lines[i], f.ProtectedMask), addrs[i])
		} else {
			s.skip()
		}
	}
	g.batchMAC()

	// Pass 2: sequential replay with precomputed tags.
	for i := range lines {
		r, werr := g.onWrite(lines[i], addrs[i], s.pre(i), true)
		res[i] = r
		if werr != nil {
			failed++
			if err == nil {
				err = werr
			}
		}
	}
	return failed, err
}

// OnReadBatch processes many lines arriving from DRAM in one call,
// verifying them through the batch engine. res, lines and addrs must have
// equal length. It is bit-identical to calling OnRead per line in order
// (reads never mutate the CTB, so the classification pass cannot go stale).
// Lines that fail verification still fall into the scalar correction
// search, which batches its own candidate waves (see correction.go).
func (g *Guard) OnReadBatch(res []ReadResult, lines []pte.Line, addrs []uint64, isPTE bool) {
	if len(res) != len(lines) || len(addrs) != len(lines) {
		panic("core: OnReadBatch slice lengths differ")
	}
	f := g.cfg.Format
	s := &g.bs
	s.reset()

	var buf [pte.LineBytes]byte
	for i := range lines {
		if g.ctb.contains(addrs[i]) {
			s.skip() // colliding line: forwarded unchecked
			continue
		}
		if !isPTE && g.cfg.OptIdentifier {
			n := gatherFieldInto(&buf, lines[i], f.IdentifierMask)
			if !bytesEqual(buf[:n], g.ident) {
				s.skip() // data read with no identifier: MAC unit skipped
				continue
			}
		}
		if g.cfg.OptZeroMAC {
			n := gatherFieldInto(&buf, lines[i], f.MACMask)
			stored, _ := mac.TagFromBytes(buf[:n], g.cfg.TagBits)
			if g.isZeroProtected(lines[i], stored, 0) {
				s.skip() // zero fast path: no computation
				continue
			}
		}
		s.push(maskedImage(lines[i], f.ProtectedMask), addrs[i])
	}
	g.batchMAC()

	for i := range lines {
		res[i] = g.onRead(lines[i], addrs[i], isPTE, s.pre(i))
	}
}

// AuditBatch batch-verifies stored line images without touching Guard
// state: ok[i] reports whether lines[i] at addrs[i] would pass the
// page-table-walk integrity check (CTB-tracked colliding lines audit as
// clean, since the read path forwards them unchecked; so do zero-protected
// lines and lines whose embedded MAC matches). It is a pure diagnostics /
// integrity-scrub path — no counters, corrections, CTB mutations or trace
// events — so campaigns can sweep a whole table population cheaply without
// perturbing the measured state.
func (g *Guard) AuditBatch(ok []bool, lines []pte.Line, addrs []uint64) {
	if len(ok) != len(lines) || len(addrs) != len(lines) {
		panic("core: AuditBatch slice lengths differ")
	}
	f := g.cfg.Format
	s := &g.bs
	s.reset()

	var buf [pte.LineBytes]byte
	for i := range lines {
		if g.ctb.contains(addrs[i]) {
			ok[i] = true
			s.skip()
			continue
		}
		n := gatherFieldInto(&buf, lines[i], f.MACMask)
		stored, _ := mac.TagFromBytes(buf[:n], g.cfg.TagBits)
		if g.cfg.OptZeroMAC && g.isZeroProtected(lines[i], stored, 0) {
			ok[i] = true
			s.skip()
			continue
		}
		ok[i] = false
		s.push(maskedImage(lines[i], f.ProtectedMask), addrs[i])
	}
	n := len(s.imgs)
	if n == 0 {
		return
	}
	if cap(s.tags) < n {
		s.tags = make([]mac.Tag, n)
	}
	s.tags = s.tags[:n]
	g.auth.ComputeBatch(s.tags, s.imgs, s.addrs)
	for i := range lines {
		if pre := s.pre(i); pre != nil {
			n := gatherFieldInto(&buf, lines[i], f.MACMask)
			stored, _ := mac.TagFromBytes(buf[:n], g.cfg.TagBits)
			ok[i] = pre.Equal(stored)
		}
	}
}
