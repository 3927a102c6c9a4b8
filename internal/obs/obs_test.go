package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Re-registration returns the same metric.
	if again := r.Counter("test_total", "a counter"); again != c {
		t.Fatal("re-registration must return the same counter")
	}

	g := r.Gauge("test_gauge", "a gauge")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 { //slate:nolint floatcmp -- a stored value reads back bit for bit
		t.Fatalf("gauge = %v, want 2.5", got)
	}
}

func TestVecSeriesAreIndependent(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("requests_total", "reqs", "class", "target")
	v.With("a", "west").Add(3)
	v.With("a", "east").Inc()
	v.With("b", "west").Inc()
	if got := v.With("a", "west").Value(); got != 3 {
		t.Fatalf("series a/west = %d, want 3", got)
	}
	if got := v.With("a", "east").Value(); got != 1 {
		t.Fatalf("series a/east = %d, want 1", got)
	}
	// Same label values resolve to the same series.
	if v.With("a", "west") != v.With("a", "west") {
		t.Fatal("same labels must intern to one series")
	}
}

func TestRegisterKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("m", "h")
}

func TestRegisterLabelMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("m", "h", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with different labels must panic")
		}
	}()
	r.CounterVec("m", "h", "a", "c")
}

func TestHistogramBucketsAndSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{1, 2, 1, 1} // ≤0.01, ≤0.1, ≤1, +Inf
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (snapshot %+v)", i, s.Counts[i], w, s)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if s.Sum < 5.60 || s.Sum > 5.61 {
		t.Fatalf("sum = %v, want 5.605", s.Sum)
	}
	// NaN observations are dropped, not propagated into the sum.
	h.Observe(math.NaN())
	if got := h.count.Load(); got != 5 {
		t.Fatalf("NaN observation must be dropped, count = %d", got)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("c_total", "c", "worker")
	h := r.Histogram("h_seconds", "h", nil)
	g := r.Gauge("g", "g")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := string(rune('a' + w))
			for i := 0; i < 1000; i++ {
				v.With(name).Inc()
				h.Observe(float64(i) / 1000)
				g.Set(float64(i))
			}
		}()
	}
	// Concurrent scrapes must not race with writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			rec := httptest.NewRecorder()
			r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", MetricsPath, nil))
		}
	}()
	wg.Wait()
	var total uint64
	for w := 0; w < 8; w++ {
		total += v.With(string(rune('a' + w))).Value()
	}
	if total != 8000 {
		t.Fatalf("lost increments: %d, want 8000", total)
	}
	if h.count.Load() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.count.Load())
	}
	if got := g.Value(); got != 999 { //slate:nolint floatcmp -- every writer's last Set stores exactly 999
		t.Fatalf("gauge = %v, want 999", got)
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("one_total", "one").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", MetricsPath, nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q lacks exposition version", ct)
	}
	if !strings.Contains(rec.Body.String(), "one_total 1") {
		t.Fatalf("body missing series:\n%s", rec.Body.String())
	}
}

func TestDefaultRegistryIsShared(t *testing.T) {
	a := Default().Counter("obs_test_shared_total", "shared")
	b := Default().Counter("obs_test_shared_total", "shared")
	if a != b {
		t.Fatal("Default() must return one shared registry")
	}
}
