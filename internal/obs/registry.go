package obs

import (
	"math"
	"math/bits"
)

// Counter is a monotonically increasing uint64 metric. All methods are
// no-ops on a nil Counter, so components hold handles unconditionally and
// pay only an inlined nil check when observability is disabled.
type Counter struct{ v uint64 }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Set overwrites the value: the feeding path for components that keep their
// own cheap counters and publish them at snapshot time.
func (c *Counter) Set(v uint64) {
	if c != nil {
		c.v = v
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is an instantaneous float64 metric.
type Gauge struct{ v float64 }

// Set overwrites the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// HistBuckets is the number of power-of-two histogram buckets: bucket 0
// holds the value 0, bucket i (i >= 1) holds values in [2^(i-1), 2^i - 1],
// and bucket 64 holds [2^63, MaxUint64].
const HistBuckets = 65

// Histogram counts uint64 observations in power-of-two buckets, the usual
// shape for latency-in-cycles distributions.
type Histogram struct {
	buckets [HistBuckets]uint64
	count   uint64
	sum     uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bits.Len64(v)]++
	h.count++
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Buckets returns the raw bucket counts.
func (h *Histogram) Buckets() [HistBuckets]uint64 {
	if h == nil {
		return [HistBuckets]uint64{}
	}
	return h.buckets
}

// BucketUpperBound returns the largest value bucket i accepts.
func BucketUpperBound(i int) uint64 {
	switch {
	case i <= 0:
		return 0
	case i >= 64:
		return math.MaxUint64
	default:
		return 1<<uint(i) - 1
	}
}

// BucketCount is one non-empty histogram bucket in a snapshot.
type BucketCount struct {
	// Le is the bucket's inclusive upper bound.
	Le uint64 `json:"le"`
	// Count is the number of observations in the bucket.
	Count uint64 `json:"count"`
}

// HistSnapshot is the serialisable state of one histogram.
type HistSnapshot struct {
	Count   uint64        `json:"count"`
	Sum     uint64        `json:"sum"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot returns the histogram's serialisable state, listing only
// non-empty buckets in ascending bound order.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{Count: h.count, Sum: h.sum}
	for i, n := range h.buckets {
		if n > 0 {
			s.Buckets = append(s.Buckets, BucketCount{Le: BucketUpperBound(i), Count: n})
		}
	}
	return s
}

// Registry is the typed metric namespace for one run. Metrics are created
// on first reference and live for the registry's lifetime; Reset zeroes
// their values without dropping registrations. A nil Registry hands out nil
// metric handles, keeping every downstream call a no-op.
//
// Registry is not safe for concurrent use (one registry per run, like the
// simulator components it observes).
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed (nil for a nil
// registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// SetCounter sets the named counter to v: the one-line feeding path for
// components publishing their internal stats at snapshot time.
func (r *Registry) SetCounter(name string, v uint64) { r.Counter(name).Set(v) }

// SetGauge sets the named gauge to v.
func (r *Registry) SetGauge(name string, v float64) { r.Gauge(name).Set(v) }

// Snapshot is a point-in-time copy of every registered metric.
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters,omitempty"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state. The zero Snapshot is
// returned for a nil registry.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]uint64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.v
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.v
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.Snapshot()
		}
	}
	return s
}

// Reset zeroes every metric's value, keeping the registrations (and any
// handles components cached).
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	for _, c := range r.counters {
		c.v = 0
	}
	for _, g := range r.gauges {
		g.v = 0
	}
	for _, h := range r.hists {
		*h = Histogram{}
	}
}
