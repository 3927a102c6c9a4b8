package obs

import "testing"

// TestHotPathMetricsAllocationFree pins the instrumentation primitives
// the dataplane calls per request at zero heap allocations: bare
// counter/gauge/histogram updates and the warm Vec lookup path (the
// series already exists, so With only builds a stack key and reads the
// map).
func TestHotPathMetricsAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc_c_total", "c")
	g := r.Gauge("alloc_g", "g")
	h := r.Histogram("alloc_h_seconds", "h", []float64{0.001, 0.01, 0.1, 1})
	v := r.CounterVec("alloc_v_total", "v", "service", "cluster", "class", "target")
	v.With("frontend", "west", "checkout", "east").Inc() // warm the series

	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
	}); n != 0 { //slate:nolint floatcmp -- AllocsPerRun returns an integer-valued count
		t.Fatalf("Counter.Inc allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		g.Set(4.5)
	}); n != 0 { //slate:nolint floatcmp -- AllocsPerRun returns an integer-valued count
		t.Fatalf("Gauge.Set allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		h.Observe(0.042)
	}); n != 0 { //slate:nolint floatcmp -- AllocsPerRun returns an integer-valued count
		t.Fatalf("Histogram.Observe allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		v.With("frontend", "west", "checkout", "east").Inc()
	}); n != 0 { //slate:nolint floatcmp -- AllocsPerRun returns an integer-valued count
		t.Fatalf("warm CounterVec.With+Inc allocates %v per run, want 0", n)
	}
}
