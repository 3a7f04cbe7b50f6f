package sim

import (
	"errors"
	"fmt"

	"ptguard/internal/cpu"
	"ptguard/internal/pte"
)

// A pipelined machine serves its memory side (controller, guard, DRAM
// device and mirrors) on a second goroutine while its front end (core,
// workload generator, TLB, walker and caches) runs ahead. The front end
// queues its DRAM accesses in program order and takes from the memory side
// only what it can do without: a data access gives it a read latency and a
// failure count, and a walk read, in a run without an integrity failure,
// the page tables' architectural line, which the front end reads itself
// (PageTables.LineAt) and the memory side checks against the controller's
// answer. The in-order core's cycles are a sum of integers, so the read
// latency the memory side totals and Run charges when it drains leaves
// them bit-identical. A walk that fails, returns another line or reaches
// no table line diverges the run, and measure runs the machine again
// sequentially (DESIGN.md §8 "Pipelined memory side").

const (
	// batchSize is the number of requests the front end hands the memory
	// side at once. A machine owns batches of them; with all queued, the
	// front end waits for the memory side.
	batchSize = 256
	batches   = 4
)

// reqKind is what a request asks of the memory side.
type reqKind uint8

const (
	reqWalk      reqKind = iota // a page-table walk read
	reqData                     // a data read (readData)
	reqWriteback                // a posted dirty writeback (writeData)
)

// request is one DRAM access of the front end.
type request struct {
	addr uint64
	kind reqKind
}

// batch is a run of requests in program order, with the line the front
// end took for each of its walk reads, in the same order.
type batch struct {
	reqs  []request
	walks []pte.Line
}

// pipeline is a pipelined machine's queue to its memory side. Its batches
// are allocated once, with the machine, and a Run's memory-side goroutine
// lives from startMemory to drainMemory.
type pipeline struct {
	cur  *batch      // the batch the front end is filling
	full chan *batch // batches for the memory side, in order
	free chan *batch // batches the memory side has served
	done chan served
	// diverged is the first divergence, from either side; once set, every
	// later Run of the machine returns it.
	diverged error
}

// served is what the memory side reports when a Run drains.
type served struct {
	readCycles uint64 // read latency the in-order core stalls for
	checkFails uint64 // failed data reads and writes
	diverged   error  // the first walk read that failed or returned another line
	panicked   any    // a panic of the memory side, raised again on the front end
}

// errDiverged marks a pipelined run whose front end answered a walk read
// otherwise than the sequential machine would have.
var errDiverged = errors.New("sim: pipelined run diverged")

// usePipeline pipelines the machine's memory side where that is exact: on
// the Table III in-order core, whose cycles are a sum of integers, and
// without an observer, churn or recovery, which act on the controller from
// the front end. It reports whether the machine is pipelined.
func (s *System) usePipeline() bool {
	if s.cfg.Core != (cpu.Config{}) || s.obs != nil || s.cfg.ChurnEvery > 0 || s.cfg.EnableRecovery {
		return false
	}
	// free holds every batch the front end is not filling.
	p := &pipeline{free: make(chan *batch, batches), done: make(chan served)}
	for i := 0; i < batches; i++ {
		p.free <- &batch{reqs: make([]request, 0, batchSize)}
	}
	s.pipe = p
	return true
}

// push queues one request, handing the batch to the memory side when it
// is full.
func (p *pipeline) push(kind reqKind, addr uint64) {
	b := p.cur
	b.reqs = append(b.reqs, request{addr: addr, kind: kind})
	if len(b.reqs) == batchSize {
		p.full <- b
		p.cur = <-p.free
	}
}

// pipelinedWalk answers the walk read of the table line at addr with the
// page tables' architectural line and queues the read, whose answer the
// memory side checks against that line.
func (s *System) pipelinedWalk(addr uint64) (pte.Line, bool) {
	p := s.pipe
	line, ok := s.tables.LineAt(addr)
	if !ok {
		if p.diverged == nil {
			p.diverged = fmt.Errorf("%w: the walk read of %#x reached no table line", errDiverged, addr)
		}
		return pte.Line{}, false
	}
	p.cur.walks = append(p.cur.walks, line)
	p.push(reqWalk, addr)
	return line, true
}

// startMemory starts the memory side of one Run.
func (s *System) startMemory() {
	p := s.pipe
	// With room for every batch, the front end waits only on free.
	p.full = make(chan *batch, batches)
	p.cur = <-p.free
	go s.serveMemory(p.full)
}

// serveMemory is the memory side of a pipelined Run: it serves the
// requests of each batch from full in order, hands the batch back on free,
// and reports on done once full is closed. It touches only the controller
// and the DRAM device, and what is behind them, which the front end leaves
// alone until Run drains.
func (s *System) serveMemory(full <-chan *batch) {
	p := s.pipe
	var out served
	defer func() {
		if v := recover(); v != nil {
			out.panicked = v
			for b := range full { // let the front end finish the Run
				p.free <- b
			}
		}
		p.done <- out
	}()
	for b := range full {
		walks := b.walks
		for _, r := range b.reqs {
			switch r.kind {
			case reqWalk:
				line, lat, ok := s.ctrl.ReadLine(r.addr, true)
				out.readCycles += uint64(lat)
				if out.diverged == nil && !ok {
					out.diverged = fmt.Errorf("%w: the walk read of %#x failed", errDiverged, r.addr)
				} else if out.diverged == nil && line != walks[0] {
					out.diverged = fmt.Errorf("%w: the walk read of %#x returned another line than the page tables", errDiverged, r.addr)
				}
				walks = walks[1:]
			case reqData:
				out.readCycles += uint64(s.readData(r.addr, &out.checkFails))
			case reqWriteback:
				s.writeData(r.addr, &out.checkFails)
			}
		}
		b.reqs, b.walks = b.reqs[:0], b.walks[:0]
		p.free <- b
	}
}

// drainMemory hands the memory side the last batch of a Run, waits until
// it has served every request, and charges the core the read latency and
// the run the failed accesses it reports. It returns the machine's
// divergence, if any.
func (s *System) drainMemory() error {
	p := s.pipe
	p.full <- p.cur
	close(p.full)
	out := <-p.done
	if out.panicked != nil {
		panic(out.panicked)
	}
	s.core.StallMemory(int(out.readCycles))
	s.checkFails += out.checkFails
	if p.diverged == nil {
		p.diverged = out.diverged
	}
	return p.diverged
}
