package telemetry

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// E2EService is the conventional pseudo-service name under which
// runtimes report end-to-end request latency (measured at the ingress,
// spanning the whole call tree). Per-service keys report pool sojourn
// times (queue wait + own service time), which is what latency-profile
// fitting needs; the controller's objective guardrail prefers the
// end-to-end stream when present.
const E2EService = "__e2e__"

// MetricKey identifies one telemetry stream: a traffic class at a
// service in a cluster.
type MetricKey struct {
	Service string
	Class   string
	Cluster string
}

// WindowStats is the aggregate the cluster controller reports upstream
// for one key over one collection window.
type WindowStats struct {
	Key      MetricKey
	Window   time.Duration
	Requests uint64
	// RPS is Requests divided by the window.
	RPS float64
	// MeanLatency, P50 and P99 summarize the sojourn time observed at
	// the service (per-span latency, not end-to-end).
	MeanLatency time.Duration
	P50, P99    time.Duration
	// EgressBytes counts bytes this key sent across cluster boundaries
	// during the window.
	EgressBytes int64
}

// Aggregator accumulates per-request observations and produces
// WindowStats on Flush. It is clock-agnostic: the caller decides when a
// window ends and how long it was, which lets the same type serve the
// virtual-time simulator and the wall-clock emulation. Safe for
// concurrent use.
type Aggregator struct {
	mu      sync.Mutex
	buckets map[MetricKey]*bucket
}

type bucket struct {
	hist   *Histogram
	egress int64
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{buckets: make(map[MetricKey]*bucket)}
}

// Record adds one request observation for the key.
func (a *Aggregator) Record(key MetricKey, latency time.Duration, egressBytes int64) {
	a.mu.Lock()
	b, ok := a.buckets[key]
	if !ok {
		b = &bucket{hist: DefaultHistogram()}
		a.buckets[key] = b
	}
	b.hist.Record(latency)
	b.egress += egressBytes
	a.mu.Unlock()
}

// Flush returns stats for every key observed since the last flush,
// computed over the given window length, and resets the aggregator.
// Keys are returned in deterministic (sorted) order.
func (a *Aggregator) Flush(window time.Duration) []WindowStats {
	a.mu.Lock()
	buckets := a.buckets
	a.buckets = make(map[MetricKey]*bucket, len(buckets))
	a.mu.Unlock()

	out := make([]WindowStats, 0, len(buckets))
	for key, b := range buckets {
		ws := WindowStats{
			Key:         key,
			Window:      window,
			Requests:    b.hist.Count(),
			MeanLatency: b.hist.Mean(),
			P50:         b.hist.Quantile(0.50),
			P99:         b.hist.Quantile(0.99),
			EgressBytes: b.egress,
		}
		if window > 0 {
			ws.RPS = float64(ws.Requests) / window.Seconds()
		}
		out = append(out, ws)
	}
	sort.Slice(out, func(i, j int) bool { return lessKey(out[i].Key, out[j].Key) })
	return out
}

func lessKey(a, b MetricKey) bool { return a.Compare(b) < 0 }

// Compare orders keys by service, then class, then cluster.
//
//slate:hot
func (k MetricKey) Compare(o MetricKey) int {
	if c := strings.Compare(k.Service, o.Service); c != 0 {
		return c
	}
	if c := strings.Compare(k.Class, o.Class); c != 0 {
		return c
	}
	return strings.Compare(k.Cluster, o.Cluster)
}

// Sorted reports whether ws is in strictly ascending key order: sorted,
// one stat per key. Flush, Merge and the cluster controller's Collect
// return windows of this shape, and DeltaReport requires it.
//
//slate:hot
func Sorted(ws []WindowStats) bool {
	for i := 1; i < len(ws); i++ {
		if ws[i-1].Key.Compare(ws[i].Key) >= 0 {
			return false
		}
	}
	return true
}

// Merge combines window stats from multiple aggregators (e.g. one per
// proxy) that cover the same window into per-key totals. Latency
// summaries are combined as request-weighted means; quantiles take the
// max (a conservative upper summary, since exact cross-node quantile
// merging needs the histograms — the cluster controller ships
// WindowStats, not raw histograms, to bound fan-in bandwidth).
//
// The concatenated groups are sorted by key, ties by input position, and
// runs of equal keys folded in that order, so a key's stats combine as
// given. Input already Sorted (one batch) comes back as a copy.
func Merge(groups ...[]WindowStats) []WindowStats {
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	all := make([]WindowStats, 0, n)
	for _, g := range groups {
		all = append(all, g...)
	}
	if Sorted(all) {
		return all
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int {
		if c := all[a].Key.Compare(all[b].Key); c != 0 {
			return c
		}
		return int(a - b)
	})
	out := make([]WindowStats, n)
	return out[:foldRuns(out, all, idx)]
}

// foldRuns copies all, in idx order, into out with every run of equal
// keys folded into one stat, and returns how many it wrote.
//
//slate:hot
func foldRuns(out, all []WindowStats, idx []int32) int {
	w := 0
	for _, i := range idx {
		ws := &all[i]
		if w == 0 || out[w-1].Key != ws.Key {
			out[w] = *ws
			w++
			continue
		}
		cur := &out[w-1]
		total := cur.Requests + ws.Requests
		if total > 0 {
			cur.MeanLatency = time.Duration(
				(float64(cur.MeanLatency)*float64(cur.Requests) +
					float64(ws.MeanLatency)*float64(ws.Requests)) / float64(total))
		}
		if ws.P50 > cur.P50 {
			cur.P50 = ws.P50
		}
		if ws.P99 > cur.P99 {
			cur.P99 = ws.P99
		}
		cur.Requests = total
		cur.RPS += ws.RPS
		cur.EgressBytes += ws.EgressBytes
		if ws.Window > cur.Window {
			cur.Window = ws.Window
		}
	}
	return w
}
