// Package obs is the unified observability subsystem for the simulated
// memory hierarchy: a typed metric registry (counters, gauges, power-of-two
// histograms), a simulated-cycle event tracer with Chrome trace_event
// export, and a periodic time-series snapshot recorder, all stdlib-only.
//
// The subsystem is designed to be zero-overhead when disabled: every method
// on every type is nil-safe, so instrumented components hold (possibly nil)
// metric handles and call them unconditionally. A nil *Observer, *Registry,
// *Tracer, *Counter, *Gauge or *Histogram turns the corresponding call into
// a no-op.
package obs

// Options parameterises one Observer.
type Options struct {
	// TraceCapacity bounds the tracer's ring buffer; 0 selects
	// DefaultTraceCapacity, negative disables tracing entirely.
	TraceCapacity int
	// SnapshotEvery is the number of retired instructions between periodic
	// time-series snapshots; 0 disables periodic snapshots (a run-final
	// snapshot is still recorded by the simulator).
	SnapshotEvery int
}

// Observer bundles the three observability pillars for one run: the metric
// registry, the event tracer, and the snapshot time series. A nil Observer
// is the disabled state; every method is a no-op on it.
//
// Observer is not safe for concurrent use: like the simulator itself, one
// Observer belongs to one run.
type Observer struct {
	reg    *Registry
	tracer *Tracer
	series *Series

	// clock maps "now" to a simulated-cycle timestamp; when unset, an
	// internal monotonic tick keeps event order meaningful in contexts
	// without a core clock (e.g. the fault campaigns).
	clock func() uint64
	tick  uint64

	snapshotEvery uint64
	nextSnapshot  uint64
}

// New builds an enabled Observer.
func New(opts Options) *Observer {
	o := &Observer{
		reg:    NewRegistry(),
		series: &Series{},
	}
	if opts.TraceCapacity >= 0 {
		o.tracer = NewTracer(opts.TraceCapacity)
	}
	if opts.SnapshotEvery > 0 {
		o.snapshotEvery = uint64(opts.SnapshotEvery)
		o.nextSnapshot = o.snapshotEvery
	}
	return o
}

// Registry returns the metric registry (nil when disabled).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Tracer returns the event tracer (nil when disabled or trace-less).
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// Series returns the snapshot time series (nil when disabled).
func (o *Observer) Series() *Series {
	if o == nil {
		return nil
	}
	return o.series
}

// SetClock installs the simulated-cycle clock events are stamped with.
func (o *Observer) SetClock(fn func() uint64) {
	if o == nil {
		return
	}
	o.clock = fn
}

// Now returns the current simulated-cycle timestamp: the installed clock,
// or a monotonic internal tick when no clock is set.
func (o *Observer) Now() uint64 {
	if o == nil {
		return 0
	}
	if o.clock != nil {
		return o.clock()
	}
	o.tick++
	return o.tick
}

// Emit records one trace event at the current clock.
func (o *Observer) Emit(cat, name string, dur uint64) {
	if o == nil || o.tracer == nil {
		return
	}
	o.tracer.Emit(cat, name, o.Now(), dur)
}

// EmitAt records one trace event at an explicit cycle timestamp.
func (o *Observer) EmitAt(cat, name string, cycle, dur uint64) {
	if o == nil {
		return
	}
	o.tracer.Emit(cat, name, cycle, dur)
}

// EmitArgs records one trace event with key/value arguments at the current
// clock. Callers on hot paths should guard the args-map construction with
// Enabled to keep the disabled case allocation-free.
func (o *Observer) EmitArgs(cat, name string, dur uint64, args map[string]uint64) {
	if o == nil || o.tracer == nil {
		return
	}
	o.tracer.EmitArgs(cat, name, o.Now(), dur, args)
}

// ShouldSnapshot reports whether the periodic snapshot cadence has elapsed
// at the given retired-instruction count, advancing the cadence when it
// fires.
func (o *Observer) ShouldSnapshot(instructions uint64) bool {
	if o == nil || o.snapshotEvery == 0 || instructions < o.nextSnapshot {
		return false
	}
	for o.nextSnapshot <= instructions {
		o.nextSnapshot += o.snapshotEvery
	}
	return true
}

// Snapshot records one time-series point from the registry's current state.
func (o *Observer) Snapshot(cycle, instructions uint64) {
	if o == nil {
		return
	}
	o.series.Record(cycle, instructions, o.reg.Snapshot())
}

// Reset zeroes the registry, drops buffered trace events and series points,
// and restarts the snapshot cadence (the simulator's post-warm-up
// ResetStats path).
func (o *Observer) Reset() {
	if o == nil {
		return
	}
	o.reg.Reset()
	o.tracer.Reset()
	o.series.Reset()
	o.tick = 0
	o.nextSnapshot = o.snapshotEvery
}

// RunMetrics is the JSON-serialisable summary of one observed run: the
// final registry state, the snapshot time series, and (optionally) the
// traced events. Campaign runners embed it in job results so the
// checkpoint journal carries per-job observability data.
type RunMetrics struct {
	Counters   map[string]uint64       `json:"counters,omitempty"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
	Series     []SeriesPoint           `json:"series,omitempty"`
	Trace      []Event                 `json:"trace,omitempty"`
	Dropped    uint64                  `json:"trace_dropped,omitempty"`
}

// RunMetrics summarises the observer's collected data. includeTrace copies
// the (bounded) event ring into the summary; leave it off for large
// campaigns whose journal should stay small.
func (o *Observer) RunMetrics(includeTrace bool) *RunMetrics {
	if o == nil {
		return nil
	}
	snap := o.reg.Snapshot()
	rm := &RunMetrics{
		Counters:   snap.Counters,
		Gauges:     snap.Gauges,
		Histograms: snap.Histograms,
		Series:     o.series.Points(),
	}
	if includeTrace && o.tracer != nil {
		rm.Trace = o.tracer.Events()
		rm.Dropped = o.tracer.Dropped()
	}
	return rm
}
