// Package memctrl models the memory controller of Fig. 5: it serves line
// reads and writes against the DRAM device, drives the PT-Guard logic on
// both paths (MAC insertion on writes, verification on tagged page-table
// walks), and accounts the MAC latency the timing model charges.
package memctrl

import (
	"errors"

	"ptguard/internal/core"
	"ptguard/internal/dram"
	"ptguard/internal/obs"
	"ptguard/internal/pte"
)

// Controller fronts one DRAM device. guard == nil models the unprotected
// baseline. Not safe for concurrent use.
type Controller struct {
	dev   *dram.Device
	guard *core.Guard

	// contention is a fixed queueing penalty added to every access,
	// modelling shared-channel pressure in multicore runs (§VII-C).
	contention int

	stats Stats

	// Cached nil-safe histogram handles; nil when observability is off, so
	// the hot path pays only a nil-receiver method call.
	readHist, writeHist *obs.Histogram
}

// Stats summarises controller activity.
type Stats struct {
	Reads, Writes    uint64
	ReadMACCycles    uint64 // MAC latency charged on the read path
	WriteMACCycles   uint64 // MAC latency on writes (off the critical path)
	CheckFailures    uint64 // integrity exceptions raised
	CorrectedReads   uint64 // reads repaired by the correction engine
	CollisionErrors  uint64 // CTB-full events (re-key required)
	TotalReadCycles  uint64
	TotalWriteCycles uint64
}

// New builds a controller. guard may be nil for the baseline.
func New(dev *dram.Device, guard *core.Guard, contentionCycles int) (*Controller, error) {
	if dev == nil {
		return nil, errors.New("memctrl: nil DRAM device")
	}
	if contentionCycles < 0 {
		return nil, errors.New("memctrl: negative contention")
	}
	return &Controller{dev: dev, guard: guard, contention: contentionCycles}, nil
}

// Guard returns the attached PT-Guard instance (nil for baseline).
func (c *Controller) Guard() *core.Guard { return c.guard }

// Device returns the underlying DRAM device.
func (c *Controller) Device() *dram.Device { return c.dev }

// Stats returns a snapshot of the controller counters.
func (c *Controller) Stats() Stats { return c.stats }

// ReadLine fetches the line at addr. isPTE tags page-table-walk requests
// (the request-bus bit of Fig. 5). The returned latency covers DRAM timing,
// contention, and any MAC verification delay. ok is false when PT-Guard
// raised PTECheckFailed: the line must not be installed or consumed.
func (c *Controller) ReadLine(addr uint64, isPTE bool) (line pte.Line, latency int, ok bool) {
	c.stats.Reads++
	latency = c.dev.Access(addr, false) + c.contention
	data := c.dev.ReadLine(addr)
	if c.guard == nil {
		c.stats.TotalReadCycles += uint64(latency)
		c.readHist.Observe(uint64(latency))
		return data, latency, true
	}
	rd := c.guard.OnRead(data, addr, isPTE)
	if rd.MACComputed {
		macLat := c.guard.Config().MACLatencyCycles
		// Correction guesses serialise on the MAC unit; each guess
		// costs one MAC computation (§VI-E timing side channel).
		cycles := macLat * max(1, rd.Guesses)
		latency += cycles
		c.stats.ReadMACCycles += uint64(cycles)
	}
	if rd.Corrected {
		c.stats.CorrectedReads++
		// Persist the repair so subsequent reads see the clean line,
		// as the controller would write back the corrected PTE.
		fixed, err := c.guard.OnWrite(rd.Line, addr)
		if err == nil {
			c.dev.WriteLine(addr, fixed.Line)
		}
	}
	if rd.CheckFailed {
		c.stats.CheckFailures++
		c.stats.TotalReadCycles += uint64(latency)
		c.readHist.Observe(uint64(latency))
		return pte.Line{}, latency, false
	}
	c.stats.TotalReadCycles += uint64(latency)
	c.readHist.Observe(uint64(latency))
	return rd.Line, latency, true
}

// WriteLine stores a line (a dirty writeback or an OS store). The latency
// is reported for accounting but writes are posted: the core does not stall
// on them, matching the paper's read-path-only slowdown.
func (c *Controller) WriteLine(addr uint64, line pte.Line) (latency int, err error) {
	return c.write(addr, line, false)
}

// WriteLinesBatch stores many lines in one call — the campaign setup /
// table-flush path. Each line is charged as WriteLine charges it, but
// protected lines are stored unsealed, owed to the guard, which seals each
// on its first read (dram.Device.WriteUnsealed), so a table line no walk
// ever fetches never has its MAC computed on the host. Stats, the bytes any
// read observes and the returned error are identical to calling WriteLine
// per element in order, and the returned latency is the sum of the
// per-line latencies. On error the remaining lines are still written (flush
// loops keep going); err is the first per-line error.
func (c *Controller) WriteLinesBatch(addrs []uint64, lines []pte.Line) (latency int, err error) {
	if len(addrs) != len(lines) {
		panic("memctrl: WriteLinesBatch slice lengths differ")
	}
	for i := range lines {
		lat, werr := c.write(addrs[i], lines[i], true)
		latency += lat
		if werr != nil && err == nil {
			err = werr
		}
	}
	return latency, err
}

// write is the write path of WriteLine and WriteLinesBatch; unsealed
// stores a protected line unsealed (core.Guard.OnWriteUnsealed).
func (c *Controller) write(addr uint64, line pte.Line, unsealed bool) (latency int, err error) {
	c.stats.Writes++
	latency = c.dev.Access(addr, true) + c.contention
	if c.guard == nil {
		c.dev.WriteLine(addr, line)
	} else {
		var res core.WriteResult
		if unsealed {
			res, err = c.guard.OnWriteUnsealed(line, addr)
		} else {
			res, err = c.guard.OnWrite(line, addr)
		}
		if res.MACComputed {
			macLat := c.guard.Config().MACLatencyCycles
			latency += macLat
			c.stats.WriteMACCycles += uint64(macLat)
		}
		if errors.Is(err, core.ErrCTBFull) {
			c.stats.CollisionErrors++
		}
		// The data is stored even on error; the caller decides on
		// re-keying.
		store(c.dev, c.guard, addr, res)
	}
	c.stats.TotalWriteCycles += uint64(latency)
	c.writeHist.Observe(uint64(latency))
	return latency, err
}

// store writes a write-path result to dev: a deferred protected line goes
// in unsealed, owed to the guard g that wrote it.
func store(dev *dram.Device, g *core.Guard, addr uint64, res core.WriteResult) {
	if res.Deferred {
		dev.WriteUnsealed(addr, res.Line, g)
	} else {
		dev.WriteLine(addr, res.Line)
	}
}

// ResetStats zeroes the counters of the controller and its guard
// (post-warm-up).
func (c *Controller) ResetStats() {
	c.stats = Stats{}
	if c.guard != nil {
		c.guard.ResetCounters()
	}
}

// SetObserver attaches the observability subsystem to the controller and
// everything behind it (guard and DRAM device). It also caches latency
// histogram handles so each access records its cycle cost; a nil observer
// detaches and the handles fall back to nil-safe no-ops.
func (c *Controller) SetObserver(o *obs.Observer) {
	r := o.Registry() // nil when o is nil or disabled
	if r != nil {
		c.readHist = r.Histogram("memctrl.read_cycles")
		c.writeHist = r.Histogram("memctrl.write_cycles")
	} else {
		c.readHist, c.writeHist = nil, nil
	}
	if c.guard != nil {
		c.guard.SetObserver(o)
	}
	c.dev.SetObserver(o)
}

// PublishObs feeds the controller counters into the metric registry under
// "memctrl." and forwards to the guard and DRAM device (the obs snapshot
// path; a nil registry is a no-op).
func (c *Controller) PublishObs(r *obs.Registry) {
	if r == nil {
		return
	}
	r.SetCounter("memctrl.reads", c.stats.Reads)
	r.SetCounter("memctrl.writes", c.stats.Writes)
	r.SetCounter("memctrl.read_mac_cycles", c.stats.ReadMACCycles)
	r.SetCounter("memctrl.write_mac_cycles", c.stats.WriteMACCycles)
	r.SetCounter("memctrl.check_failures", c.stats.CheckFailures)
	r.SetCounter("memctrl.corrected_reads", c.stats.CorrectedReads)
	r.SetCounter("memctrl.collision_errors", c.stats.CollisionErrors)
	r.SetCounter("memctrl.total_read_cycles", c.stats.TotalReadCycles)
	r.SetCounter("memctrl.total_write_cycles", c.stats.TotalWriteCycles)
	if c.guard != nil {
		c.guard.PublishObs(r)
	}
	c.dev.PublishObs(r)
}
