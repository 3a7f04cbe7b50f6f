package sim

import (
	"errors"
	"fmt"

	"ptguard/internal/memctrl"
	"ptguard/internal/pte"
)

// A pipelined machine serves its memory sides on a second goroutine while
// its front end (core, workload generator, TLB, walker and caches) runs
// ahead. A memory side is a controller with its guard and DRAM device: the
// machine's own, then one per further protected mode of the comparison
// (simulate). The front end queues its DRAM accesses in program order, and
// the memory goroutine serves each batch of them on every side in turn.
// The front end takes from its own side only what it can do without: a
// data access gives it a read latency and a failure count, and a walk read
// the page tables' architectural line, which the front end reads itself
// (PageTables.LineAt) and every side checks against its controller's
// answer. The in-order core's cycles are a sum of integers, so the read
// latency the machine's own side totals and Run charges when it drains
// leaves them bit-identical. A walk that fails on a side, returns another
// line there or reaches no table line makes the run an error (DESIGN.md §8
// "Pipelined memory side").

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

// side is one memory side of a pipelined machine: a controller, with its
// guard and DRAM device, in front of which a machine in mode would sit.
type side struct {
	mode Mode
	ctrl *memctrl.Controller
}

// pipeline is a pipelined machine's queue to its memory sides. Its batches
// are allocated once, with the machine, and a Run's memory-side goroutine
// lives from startMemory to drainMemory.
type pipeline struct {
	sides []side      // the machine's own memory side, then the further ones
	cur   *batch      // the batch the front end is filling
	full  chan *batch // batches for the memory side, in order
	free  chan *batch // batches the memory side has served
	done  chan served
	// diverged is the first divergence, from the front end or a side;
	// once set, every later Run of the machine returns it.
	diverged error
}

// served is what the memory side reports when a Run drains.
type served struct {
	readCycles uint64 // read latency the in-order core stalls for
	checkFails uint64 // the machine's failed data reads and writes
	diverged   error  // the first walk read that failed or returned another line
	panicked   any    // a panic of the memory side, raised again on the front end
}

// errDiverged marks a pipelined run in which a walk read was answered
// otherwise than the page tables: the front end went on with a line the
// machine never read, so the run measured nothing.
var errDiverged = errors.New("sim: pipelined run diverged")

// usePipeline serves the memory sides on a second goroutine during each
// Run: sides[0] is the machine's own (its controller), the rest are the
// further sides. Only simulate calls it, on a Compare machine: the Table
// III in-order core, whose cycles are a sum of integers, without an
// observer, churn or recovery, which act on the controller from the front
// end.
func (s *System) usePipeline(sides []side) {
	// free holds every batch the front end is not filling.
	p := &pipeline{
		sides: sides,
		free:  make(chan *batch, batches),
		done:  make(chan served),
	}
	for i := 0; i < batches; i++ {
		p.free <- &batch{reqs: make([]request, 0, batchSize)}
	}
	s.pipe = p
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
// page tables' architectural line and queues the read, whose answer every
// memory side checks against that line.
func (s *System) pipelinedWalk(addr uint64) (pte.Line, bool) {
	p := s.pipe
	line, ok := s.tables.LineAt(addr)
	if !ok {
		if p.diverged == nil {
			p.diverged = fmt.Errorf("%w: the %s walk read of %#x reached no table line", errDiverged, s.cfg.Mode, addr)
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
// requests of each batch from full on every side in turn, hands the batch
// back on free, and reports on done once full is closed. It touches only
// the sides' controllers and what is behind them, which the front end
// leaves alone until Run drains.
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
		for i, sd := range p.sides {
			cycles, fails, err := s.serve(sd, b)
			if i == 0 {
				out.readCycles += cycles
				out.checkFails += fails
			}
			if out.diverged == nil {
				out.diverged = err
			}
		}
		b.reqs, b.walks = b.reqs[:0], b.walks[:0]
		p.free <- b
	}
}

// serve serves the requests of b on side sd in order. It returns the read
// latency and the failed data accesses there, which only the machine's own
// side charges to the machine (a further side's show in its controller's
// Stats), and the first walk read that failed or returned another line
// than the page tables.
func (s *System) serve(sd side, b *batch) (readCycles, fails uint64, diverged error) {
	walks := b.walks
	for _, r := range b.reqs {
		switch r.kind {
		case reqWalk:
			line, lat, ok := sd.ctrl.ReadLine(r.addr, true)
			readCycles += uint64(lat)
			if diverged == nil && !ok {
				diverged = fmt.Errorf("%w: the walk read of %#x failed on the %s side", errDiverged, r.addr, sd.mode)
			} else if diverged == nil && line != walks[0] {
				diverged = fmt.Errorf("%w: the walk read of %#x returned another line than the page tables on the %s side", errDiverged, r.addr, sd.mode)
			}
			walks = walks[1:]
		case reqData:
			readCycles += uint64(s.readData(sd.ctrl, r.addr, &fails))
		case reqWriteback:
			s.writeData(sd.ctrl, r.addr, &fails)
		}
	}
	return readCycles, fails, diverged
}

// drainMemory hands the memory side the last batch of a Run, waits until
// it has served every request on every side, and charges the core the read
// latency and the run the failed accesses of the machine's own side. It
// returns the machine's divergence, if any.
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
