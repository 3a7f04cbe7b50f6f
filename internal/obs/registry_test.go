package obs

import (
	"math"
	"testing"
)

// TestHistogramBucketBoundaries pins the power-of-two bucketing contract:
// bucket 0 holds only the value 0, bucket i holds [2^(i-1), 2^i - 1], and
// the last bucket absorbs everything up to MaxUint64.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      uint64
		bucket int
	}{
		{v: 0, bucket: 0},
		{v: 1, bucket: 1},
		{v: 2, bucket: 2},
		{v: 3, bucket: 2},
		{v: 4, bucket: 3},
		{v: 7, bucket: 3},
		{v: 8, bucket: 4},
		{v: 1023, bucket: 10},
		{v: 1024, bucket: 11},
		{v: 1 << 63, bucket: 64},
		{v: math.MaxUint64, bucket: 64},
	}
	for _, c := range cases {
		h := &Histogram{}
		h.Observe(c.v)
		buckets := h.Buckets()
		for i, n := range buckets {
			want := uint64(0)
			if i == c.bucket {
				want = 1
			}
			if n != want {
				t.Errorf("Observe(%d): bucket[%d] = %d, want %d", c.v, i, n, want)
			}
		}
		// The chosen bucket's bound must accept the value and the previous
		// bucket's bound must not.
		if ub := BucketUpperBound(c.bucket); ub < c.v {
			t.Errorf("BucketUpperBound(%d) = %d < observed %d", c.bucket, ub, c.v)
		}
		if c.bucket > 0 {
			if lb := BucketUpperBound(c.bucket - 1); lb >= c.v && c.v > 0 {
				t.Errorf("BucketUpperBound(%d) = %d should be below %d", c.bucket-1, lb, c.v)
			}
		}
	}
}

func TestHistogramCountSumSnapshot(t *testing.T) {
	h := &Histogram{}
	for _, v := range []uint64{0, 1, 1, 5, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
	if h.Sum() != 1007 {
		t.Errorf("Sum = %d, want 1007", h.Sum())
	}
	snap := h.Snapshot()
	if snap.Count != 5 || snap.Sum != 1007 {
		t.Errorf("Snapshot = %+v", snap)
	}
	// Only non-empty buckets, ascending bounds.
	if len(snap.Buckets) != 4 {
		t.Fatalf("Snapshot buckets = %+v, want 4 entries", snap.Buckets)
	}
	for i := 1; i < len(snap.Buckets); i++ {
		if snap.Buckets[i].Le <= snap.Buckets[i-1].Le {
			t.Errorf("bucket bounds not ascending: %+v", snap.Buckets)
		}
	}
}

// TestNilMetricsNoOp is the zero-overhead contract: every method on every
// nil handle must be callable and inert.
func TestNilMetricsNoOp(t *testing.T) {
	var c *Counter
	c.Add(5)
	c.Set(9)
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}

	var g *Gauge
	g.Set(1.5)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}

	var h *Histogram
	h.Observe(42)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram observed")
	}
	if h.Snapshot().Count != 0 {
		t.Error("nil histogram snapshot non-empty")
	}

	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Error("nil registry handed out live handles")
	}
	r.SetCounter("x", 1)
	r.SetGauge("x", 1)
	r.Reset()
	if snap := r.Snapshot(); snap.Counters != nil || snap.Gauges != nil {
		t.Error("nil registry snapshot non-empty")
	}

	var o *Observer
	o.Emit("cat", "name", 1)
	o.EmitAt("cat", "name", 1, 1)
	o.EmitArgs("cat", "name", 1, nil)
	o.SetClock(func() uint64 { return 1 })
	o.Snapshot(1, 1)
	o.Reset()
	if o.ShouldSnapshot(math.MaxUint64) {
		t.Error("nil observer wants a snapshot")
	}
	if o.Now() != 0 {
		t.Error("nil observer has a clock")
	}
	if o.Registry() != nil || o.Tracer() != nil || o.Series() != nil {
		t.Error("nil observer handed out live components")
	}
	if o.RunMetrics(true) != nil {
		t.Error("nil observer produced metrics")
	}

	var tr *Tracer
	tr.Emit("a", "b", 1, 1)
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Error("nil tracer recorded events")
	}

	var s *Series
	s.Record(1, 1, Snapshot{})
	s.Reset()
	if s.Len() != 0 || s.Points() != nil {
		t.Error("nil series recorded points")
	}
}

func TestRegistryCreateOnReferenceAndReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	c.Add(3)
	if r.Counter("hits") != c {
		t.Error("second reference created a new counter")
	}
	r.SetGauge("occ", 0.5)
	r.Histogram("lat").Observe(7)

	snap := r.Snapshot()
	if snap.Counters["hits"] != 3 || snap.Gauges["occ"] != 0.5 || snap.Histograms["lat"].Count != 1 {
		t.Errorf("snapshot = %+v", snap)
	}

	r.Reset()
	if c.Value() != 0 {
		t.Error("reset did not zero the cached handle")
	}
	if got := r.Snapshot().Counters; len(got) != 1 || got["hits"] != 0 {
		t.Errorf("reset dropped registrations: %v, want hits = 0", got)
	}
	if r.Histogram("lat").Count() != 0 {
		t.Error("reset did not zero the histogram")
	}
}

func TestObserverSnapshotCadence(t *testing.T) {
	o := New(Options{SnapshotEvery: 100})
	if o.ShouldSnapshot(99) {
		t.Error("snapshot fired early")
	}
	if !o.ShouldSnapshot(100) {
		t.Error("snapshot did not fire at the cadence")
	}
	if o.ShouldSnapshot(150) {
		t.Error("snapshot re-fired within one period")
	}
	// A large jump advances past every elapsed period, firing once.
	if !o.ShouldSnapshot(1000) {
		t.Error("snapshot did not fire after a jump")
	}
	if o.ShouldSnapshot(1050) {
		t.Error("cadence did not advance past the jump")
	}

	o.Registry().SetCounter("x", 7)
	o.Snapshot(500, 1000)
	pts := o.Series().Points()
	if len(pts) != 1 || pts[0].Cycle != 500 || pts[0].Instructions != 1000 || pts[0].Counters["x"] != 7 {
		t.Errorf("series points = %+v", pts)
	}

	// SnapshotEvery 0 disables the periodic cadence entirely.
	o2 := New(Options{})
	if o2.ShouldSnapshot(math.MaxUint64) {
		t.Error("cadence fired with SnapshotEvery=0")
	}
}

func TestObserverReset(t *testing.T) {
	o := New(Options{SnapshotEvery: 10, TraceCapacity: 8})
	o.Registry().SetCounter("x", 1)
	o.Emit("cat", "ev", 0)
	o.Snapshot(1, 1)
	o.Reset()
	if o.Registry().Counter("x").Value() != 0 {
		t.Error("reset kept counter value")
	}
	if o.Tracer().Len() != 0 {
		t.Error("reset kept trace events")
	}
	if o.Series().Len() != 0 {
		t.Error("reset kept series points")
	}
	if !o.ShouldSnapshot(10) {
		t.Error("reset did not restart the snapshot cadence")
	}
}
