// Package telemetry provides the observability substrate SLATE's control
// plane consumes: per-request records and spans, call-tree
// reconstruction, streaming latency histograms, and windowed
// per-(service, class, cluster) aggregation (paper §3.1: the SLATE-proxy
// "monitors and reports telemetry in each microservice replica...
// including the load on the service, request specific information,
// latency, trace information, and request traffic classes").
package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"
)

// Histogram is a streaming latency histogram with logarithmically spaced
// buckets, in the spirit of HDR histograms: constant memory, bounded
// relative quantile error. The zero value is not usable; construct with
// DefaultHistogram. Not safe for concurrent use; callers own locking.
type Histogram struct {
	*shape
	counts  []uint64
	n       uint64
	sum     time.Duration
	maxSeen time.Duration
	minSeen time.Duration
}

// shape is a bucket layout: immutable once built, so every histogram made
// from it shares it, across goroutines included.
type shape struct {
	bounds []time.Duration // upper bound of each bucket
	// first[bucketKey(d)] is the first bucket whose bound can reach a
	// value with d's key: the search for d starts there.
	first []int32
}

// keyBits is how many bits below the leading one a bucket key keeps: a
// key spans at most 1/16 of its value, so with growth 1.05 the search
// from first[key] steps past at most two bounds.
const keyBits = 4

// bucketKey orders durations coarsely: values below 2^(keyBits+1) are
// their own key, larger ones the position of their leading one and the
// keyBits bits after it. It is monotone in d, and integer-only, so no
// float rounding can misplace a value.
func bucketKey(d time.Duration) int {
	u := uint64(d)
	if u < 2<<keyBits {
		return int(u)
	}
	e := bits.Len64(u) - keyBits - 1
	return e<<keyBits + int(u>>e)
}

// keyFloor is the smallest duration with bucket key k.
func keyFloor(k int) time.Duration {
	if k < 2<<keyBits {
		return time.Duration(k)
	}
	e := k>>keyBits - 1
	return time.Duration(k-e<<keyBits) << e
}

// newShape lays out buckets over [min, max] growing by growth.
func newShape(min, max time.Duration, growth float64) (*shape, error) {
	if min <= 0 || max <= min {
		return nil, fmt.Errorf("telemetry: invalid histogram range [%v, %v]", min, max)
	}
	if growth <= 1 {
		return nil, fmt.Errorf("telemetry: growth factor must exceed 1, got %v", growth)
	}
	s := &shape{}
	for b := float64(min); b < float64(max); b *= growth {
		s.bounds = append(s.bounds, time.Duration(b))
	}
	s.bounds = append(s.bounds, max)
	s.first = make([]int32, bucketKey(math.MaxInt64)+1)
	i := 0
	for k := range s.first {
		for lo := keyFloor(k); i < len(s.bounds) && s.bounds[i] < lo; {
			i++
		}
		s.first[k] = int32(i)
	}
	return s, nil
}

// index returns the first bucket whose bound is >= d, len(bounds) (the
// overflow bucket) if none: sort.Search over bounds, in O(1).
//
//slate:hot
func (s *shape) index(d time.Duration) int {
	i := int(s.first[bucketKey(d)])
	for i < len(s.bounds) && s.bounds[i] < d {
		i++
	}
	return i
}

// newHistogram returns an empty histogram over layout s.
func newHistogram(s *shape) *Histogram {
	return &Histogram{shape: s, counts: make([]uint64, len(s.bounds)+1), minSeen: math.MaxInt64} // +1 overflow bucket
}

// defaultShape is DefaultHistogram's layout, built once.
var defaultShape = func() *shape {
	s, err := newShape(10*time.Microsecond, 100*time.Second, 1.05)
	if err != nil {
		panic(err)
	}
	return s
}()

// DefaultHistogram covers 10µs to 100s with ~5% resolution — suitable
// for request latencies. Every default histogram shares one layout.
func DefaultHistogram() *Histogram { return newHistogram(defaultShape) }

// Record adds one observation.
//
//slate:hot
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[h.index(d)]++
	h.n++
	h.sum += d
	if d > h.maxSeen {
		h.maxSeen = d
	}
	if d < h.minSeen {
		h.minSeen = d
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Mean returns the exact mean of recorded values (tracked outside the
// buckets, so it has no quantization error).
func (h *Histogram) Mean() time.Duration {
	if h.n == 0 {
		return 0
	}
	return h.sum / time.Duration(h.n)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) with relative error
// bounded by the growth factor. q outside [0,1] is clamped.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.minSeen
	}
	if q >= 1 {
		return h.maxSeen
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i >= len(h.bounds) {
				return h.maxSeen
			}
			// Clamp the bucket bound to the observed range so quantiles
			// never fall outside it.
			b := h.bounds[i]
			if b > h.maxSeen {
				b = h.maxSeen
			}
			if b < h.minSeen {
				b = h.minSeen
			}
			return b
		}
	}
	return h.maxSeen
}

// Reset clears all observations, keeping the bucket layout.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.n, h.sum, h.maxSeen = 0, 0, 0
	h.minSeen = math.MaxInt64
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Latency  time.Duration
	Fraction float64 // P(X <= Latency)
}

// CDFOf computes an exact empirical CDF from raw samples (sorted copy),
// used for small result sets where exactness beats constant memory.
func CDFOf(samples []time.Duration) []CDFPoint {
	if len(samples) == 0 {
		return nil
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	out := make([]CDFPoint, 0, len(s))
	n := float64(len(s))
	for i, v := range s {
		// Collapse runs of equal values to the last index.
		if i+1 < len(s) && s[i+1] == v {
			continue
		}
		out = append(out, CDFPoint{Latency: v, Fraction: float64(i+1) / n})
	}
	return out
}

// QuantileOf returns the exact q-quantile of raw samples.
func QuantileOf(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}

// MeanOf returns the mean of raw samples.
func MeanOf(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range samples {
		sum += v
	}
	return sum / time.Duration(len(samples))
}
