// Package obs is SLATE's live observability layer: a stdlib-only,
// allocation-conscious metrics registry with Prometheus text-format
// exposition, optional pprof mounting, and a JSONL span exporter.
//
// The paper's premise (§3) is that the control loop is only as good as
// the telemetry feeding it; this package is the runtime half of that
// story — the part a production mesh (Traffic Director, ServiceRouter)
// ships so operators can watch the controllers and sidecars work.
// Every SLATE daemon mounts the exposition handler at
// GET /metrics/prom (MetricsPath).
//
// Design constraints, in order:
//
//   - Hot-path safety. Counter.Inc, Gauge.Set and Histogram.Observe are
//     single atomic operations; vec lookups with warm label sets take a
//     read-locked map hit keyed by a fixed-size array (no allocation).
//     The data-plane proxy increments counters on every proxied request,
//     so these paths are pinned at zero heap allocations by
//     alloc_test.go.
//   - Race-free reads. Snapshot() and the exposition walk read atomics;
//     they never lock a metric against its writers, so scraping cannot
//     stall the data plane.
//   - No dependencies. Everything is stdlib; the exposition format is
//     Prometheus text format 0.0.4, written by hand.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// MetricsPath is the conventional exposition route every SLATE daemon
// serves.
const MetricsPath = "/metrics/prom"

// maxLabels bounds the label arity of one metric family. Vec lookups
// key on a fixed-size array of label values so a warm lookup does not
// allocate; four covers the widest SLATE schema
// (service, cluster, class, target).
const maxLabels = 4

// labelKey is the interned series key: label values padded to
// maxLabels. Comparable, so map lookups with a stack-built key are
// allocation-free.
type labelKey [maxLabels]string

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Counter is a monotonically increasing uint64. The zero value is ready
// to use, but counters obtained from a Registry are what exposition
// sees.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
//
//slate:hot
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down, stored as atomic bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
//
//slate:hot
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// family is one named metric: HELP/TYPE metadata plus the series map.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string  // label names, len <= maxLabels
	bounds []float64 // histogram upper bounds (exclusive of +Inf)

	mu     sync.RWMutex
	series map[labelKey]any // *Counter | *Gauge | *Histogram
}

// get returns the series for key, creating it on first use. The warm
// lookup is a read-locked map hit on a comparable array key.
//
//slate:hot
func (f *family) get(key labelKey) any {
	f.mu.RLock()
	m, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return m
	}
	return f.create(key)
}

// create mints the series for key under the write lock: the
// once-per-label-set slow path of get.
//
//slate:cold
func (f *family) create(key labelKey) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m
	}
	var m any
	switch f.kind {
	case kindCounter:
		m = &Counter{}
	case kindGauge:
		m = &Gauge{}
	case kindHistogram:
		m = newHistogram(f.bounds)
	}
	f.series[key] = m
	return m
}

// Registry holds metric families. One Registry typically backs one
// process; Default() is the shared instance every SLATE component
// registers into so a single exposition endpoint shows the whole
// daemon.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// register returns the family, creating it if absent. Re-registration
// with the same shape is idempotent (every proxy in an emulated mesh
// registers the same families); a name collision with a different kind
// or label schema is a programming error and panics.
func (r *Registry) register(name, help string, kind metricKind, labels []string, bounds []float64) *family {
	if name == "" {
		panic("obs: empty metric name")
	}
	if len(labels) > maxLabels {
		panic(fmt.Sprintf("obs: metric %s has %d labels, max %d", name, len(labels), maxLabels))
	}
	r.mu.RLock()
	f, ok := r.fams[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		f, ok = r.fams[name]
		if !ok {
			f = &family{
				name:   name,
				help:   help,
				kind:   kind,
				labels: append([]string(nil), labels...),
				bounds: append([]float64(nil), bounds...),
				series: make(map[labelKey]any),
			}
			r.fams[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s, was %s", name, kind, f.kind))
	}
	if len(f.labels) != len(labels) {
		panic(fmt.Sprintf("obs: metric %s re-registered with %d labels, was %d", name, len(labels), len(f.labels)))
	}
	for i := range labels {
		if f.labels[i] != labels[i] {
			panic(fmt.Sprintf("obs: metric %s re-registered with label %q, was %q", name, labels[i], f.labels[i]))
		}
	}
	return f
}

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, nil, nil).get(labelKey{}).(*Counter)
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, nil, nil).get(labelKey{}).(*Gauge)
}

// Histogram registers (or finds) an unlabeled fixed-bucket histogram.
// bounds are ascending upper bounds in the observed unit; nil uses
// DefBuckets (seconds).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	return r.register(name, help, kindHistogram, nil, bounds).get(labelKey{}).(*Histogram)
}

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.register(name, help, kindCounter, labels, nil)}
}

// GaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.register(name, help, kindGauge, labels, nil)}
}

// HistogramVec registers (or finds) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefBuckets
	}
	return &HistogramVec{fam: r.register(name, help, kindHistogram, labels, bounds)}
}

// CounterVec is a counter family addressed by label values.
type CounterVec struct{ fam *family }

// With returns the counter for the given label values (one per label
// name, in registration order). A warm lookup is allocation-free; hold
// the returned *Counter on hot paths anyway when the label set is
// fixed.
//
//slate:hot
func (v *CounterVec) With(values ...string) *Counter {
	return v.fam.get(v.fam.key(values)).(*Counter)
}

// GaugeVec is a gauge family addressed by label values.
type GaugeVec struct{ fam *family }

// With returns the gauge for the given label values.
//
//slate:hot
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.fam.get(v.fam.key(values)).(*Gauge)
}

// HistogramVec is a histogram family addressed by label values.
type HistogramVec struct{ fam *family }

// With returns the histogram for the given label values.
//
//slate:hot
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.fam.get(v.fam.key(values)).(*Histogram)
}

func (f *family) key(values []string) labelKey {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	var k labelKey
	copy(k[:], values)
	return k
}

// families returns the registry's families sorted by name.
func (r *Registry) families() []*family {
	r.mu.RLock()
	out := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		out = append(out, f)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// sortedSeries returns the family's series as (key, metric) pairs in
// deterministic label order. The family lock is held only for the copy.
func (f *family) sortedSeries() []seriesEntry {
	f.mu.RLock()
	out := make([]seriesEntry, 0, len(f.series))
	for k, m := range f.series {
		out = append(out, seriesEntry{key: k, metric: m})
	}
	f.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].key, out[j].key
		for l := 0; l < maxLabels; l++ {
			if a[l] != b[l] {
				return a[l] < b[l]
			}
		}
		return false
	})
	return out
}

type seriesEntry struct {
	key    labelKey
	metric any
}
