package obs

import (
	"math"
	"sync/atomic"
)

// DefBuckets are the default histogram bounds, in seconds — the same
// spread Prometheus clients default to, covering sub-millisecond
// control-loop work up to ten-second outage-scale stalls.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with atomic counters: Observe
// is lock-free and allocation-free, and Snapshot reads are race-free
// (every load is atomic; a snapshot taken concurrently with writers is
// a consistent-enough view in which each bucket is at least as old as
// the one read before it). Construct via Registry.Histogram; the bucket
// bounds are fixed at registration.
type Histogram struct {
	bounds []float64       // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64 // len(bounds)+1; non-cumulative per bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value. Values above the last bound land in the
// implicit +Inf bucket. NaN observations are dropped.
//
//slate:hot
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	// Linear scan: bucket counts are small (≤ ~16) and the comparison
	// loop is branch-predictable, which beats binary search at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// HistogramSnapshot is a point-in-time copy of a histogram, safe to
// read and serialize without touching the live atomics again.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts[i] is the
	// non-cumulative count of observations ≤ Bounds[i], and
	// Counts[len(Bounds)] is the +Inf bucket.
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Snapshot copies the histogram's state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds, // immutable after registration; shared
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}
