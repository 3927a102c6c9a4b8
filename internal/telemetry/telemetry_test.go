package telemetry

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := DefaultHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(1) != 0 || h.Quantile(0) != 0 {
		t.Error("empty histogram should report zeros")
	}
	if h.Quantile(0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
	h.Record(10 * time.Millisecond)
	h.Record(20 * time.Millisecond)
	h.Record(30 * time.Millisecond)
	if h.Count() != 3 {
		t.Errorf("Count = %d, want 3", h.Count())
	}
	if h.Mean() != 20*time.Millisecond {
		t.Errorf("Mean = %v, want 20ms", h.Mean())
	}
	if h.Quantile(1) != 30*time.Millisecond {
		t.Errorf("max = %v", h.Quantile(1))
	}
	if h.Quantile(0) != 10*time.Millisecond {
		t.Errorf("min = %v", h.Quantile(0))
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := DefaultHistogram()
	rng := rand.New(rand.NewSource(1))
	var raw []time.Duration
	for i := 0; i < 50000; i++ {
		d := time.Duration(rng.ExpFloat64() * float64(40*time.Millisecond))
		raw = append(raw, d)
		h.Record(d)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := QuantileOf(raw, q)
		got := h.Quantile(q)
		rel := float64(got-exact) / float64(exact)
		if rel < -0.06 || rel > 0.06 {
			t.Errorf("q%.2f: histogram %v vs exact %v (rel err %.3f, want within 6%%)", q, got, exact, rel)
		}
	}
}

func TestHistogramClampsOutOfRange(t *testing.T) {
	s, err := newShape(time.Millisecond, time.Second, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	h := newHistogram(s)
	h.Record(-5 * time.Millisecond) // clamps to 0 -> lowest bucket
	h.Record(10 * time.Second)      // overflow bucket
	if h.Count() != 2 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Quantile(1) != 10*time.Second {
		t.Errorf("max quantile = %v, want 10s (tracked exactly)", h.Quantile(1))
	}
}

func TestHistogramValidation(t *testing.T) {
	if _, err := newShape(0, time.Second, 1.5); err == nil {
		t.Error("min=0 should error")
	}
	if _, err := newShape(time.Second, time.Second, 1.5); err == nil {
		t.Error("max=min should error")
	}
	if _, err := newShape(time.Millisecond, time.Second, 1.0); err == nil {
		t.Error("growth=1 should error")
	}
}

func TestHistogramReset(t *testing.T) {
	h := DefaultHistogram()
	h.Record(time.Millisecond)
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(1) != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestCDFOfExact(t *testing.T) {
	samples := []time.Duration{30, 10, 20, 20}
	cdf := CDFOf(samples)
	want := []CDFPoint{{10, 0.25}, {20, 0.75}, {30, 1.0}}
	if len(cdf) != len(want) {
		t.Fatalf("CDF = %v, want %v", cdf, want)
	}
	for i := range want {
		if cdf[i] != want[i] {
			t.Fatalf("CDF[%d] = %v, want %v", i, cdf[i], want[i])
		}
	}
	if CDFOf(nil) != nil {
		t.Error("empty CDFOf should be nil")
	}
}

func TestQuantileOfAndMeanOf(t *testing.T) {
	s := []time.Duration{40, 10, 30, 20}
	if q := QuantileOf(s, 0.5); q != 20 {
		t.Errorf("median = %v, want 20", q)
	}
	if q := QuantileOf(s, 0); q != 10 {
		t.Errorf("q0 = %v, want 10", q)
	}
	if q := QuantileOf(s, 1); q != 40 {
		t.Errorf("q1 = %v, want 40", q)
	}
	if m := MeanOf(s); m != 25 {
		t.Errorf("mean = %v, want 25", m)
	}
	if QuantileOf(nil, 0.5) != 0 || MeanOf(nil) != 0 {
		t.Error("empty inputs should yield 0")
	}
}

func TestQuantileOfDoesNotMutate(t *testing.T) {
	s := []time.Duration{3, 1, 2}
	QuantileOf(s, 0.5)
	if s[0] != 3 || s[1] != 1 || s[2] != 2 {
		t.Error("QuantileOf mutated its input")
	}
}

func TestBuildTree(t *testing.T) {
	spans := []Span{
		{Trace: 1, ID: 2, Parent: 1, Service: "mp", Cluster: "west", Start: 10, End: 90},
		{Trace: 1, ID: 1, Parent: 0, Service: "fr", Cluster: "west", Start: 0, End: 100},
		{Trace: 1, ID: 3, Parent: 2, Service: "db", Cluster: "east", Start: 20, End: 80},
	}
	tree, err := BuildTree(spans)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root.Span.Service != "fr" {
		t.Errorf("root = %q, want fr", tree.Root.Span.Service)
	}
	if tree.NumSpans != 3 {
		t.Errorf("NumSpans = %d", tree.NumSpans)
	}
	mp := tree.Root.Children[0]
	if mp.Span.Service != "mp" || mp.Children[0].Span.Service != "db" {
		t.Error("tree structure wrong")
	}
}

func TestBuildTreeChildOrdering(t *testing.T) {
	spans := []Span{
		{Trace: 1, ID: 1, Parent: 0, Service: "root", Start: 0, End: 100},
		{Trace: 1, ID: 3, Parent: 1, Service: "b", Start: 50, End: 60},
		{Trace: 1, ID: 2, Parent: 1, Service: "a", Start: 10, End: 20},
	}
	tree, err := BuildTree(spans)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root.Children[0].Span.Service != "a" || tree.Root.Children[1].Span.Service != "b" {
		t.Error("children not ordered by start time")
	}
}

func TestBuildTreeErrors(t *testing.T) {
	if _, err := BuildTree(nil); err == nil {
		t.Error("no spans should error")
	}
	if _, err := BuildTree([]Span{{Trace: 1, ID: 1, Parent: 5}}); err == nil {
		t.Error("no root should error")
	}
	if _, err := BuildTree([]Span{
		{Trace: 1, ID: 1, Parent: 0},
		{Trace: 1, ID: 2, Parent: 0},
	}); err == nil {
		t.Error("two roots should error")
	}
	if _, err := BuildTree([]Span{
		{Trace: 1, ID: 1, Parent: 0},
		{Trace: 2, ID: 2, Parent: 1},
	}); err == nil {
		t.Error("mixed traces should error")
	}
	if _, err := BuildTree([]Span{
		{Trace: 1, ID: 1, Parent: 0},
		{Trace: 1, ID: 1, Parent: 0},
	}); err == nil {
		t.Error("duplicate span IDs should error")
	}
}

func TestBuildTreeOrphans(t *testing.T) {
	spans := []Span{
		{Trace: 1, ID: 1, Parent: 0, Service: "root"},
		{Trace: 1, ID: 9, Parent: 7, Service: "lost"}, // parent 7 missing
	}
	tree, err := BuildTree(spans)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Orphans) != 1 || tree.Orphans[0].Span.Service != "lost" {
		t.Errorf("Orphans = %v", tree.Orphans)
	}
}

func TestAggregatorFlush(t *testing.T) {
	a := NewAggregator()
	k1 := MetricKey{Service: "svc", Class: "L", Cluster: "west"}
	k2 := MetricKey{Service: "svc", Class: "H", Cluster: "west"}
	for i := 0; i < 10; i++ {
		a.Record(k1, 10*time.Millisecond, 100)
	}
	a.Record(k2, 50*time.Millisecond, 0)
	stats := a.Flush(2 * time.Second)
	if len(stats) != 2 {
		t.Fatalf("stats = %d entries, want 2", len(stats))
	}
	// Sorted order: class H before L.
	if stats[0].Key != k2 || stats[1].Key != k1 {
		t.Fatalf("order = %v", stats)
	}
	if stats[1].Requests != 10 || !almostEqual(stats[1].RPS, 5) {
		t.Errorf("k1 stats = %+v, want 10 reqs, 5 rps", stats[1])
	}
	if stats[1].EgressBytes != 1000 {
		t.Errorf("egress = %d, want 1000", stats[1].EgressBytes)
	}
	if stats[1].MeanLatency != 10*time.Millisecond {
		t.Errorf("mean = %v", stats[1].MeanLatency)
	}
	// Second flush is empty.
	if again := a.Flush(time.Second); len(again) != 0 {
		t.Errorf("second flush = %v, want empty", again)
	}
}

func TestAggregatorConcurrent(t *testing.T) {
	a := NewAggregator()
	k := MetricKey{Service: "s", Class: "c", Cluster: "x"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				a.Record(k, time.Millisecond, 1)
			}
		}()
	}
	wg.Wait()
	stats := a.Flush(time.Second)
	if len(stats) != 1 || stats[0].Requests != 8000 || stats[0].EgressBytes != 8000 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestMergeWeightsMeans(t *testing.T) {
	k := MetricKey{Service: "s", Class: "c", Cluster: "x"}
	g1 := []WindowStats{{Key: k, Window: time.Second, Requests: 10, RPS: 10, MeanLatency: 10 * time.Millisecond, P99: 20 * time.Millisecond, EgressBytes: 5}}
	g2 := []WindowStats{{Key: k, Window: time.Second, Requests: 30, RPS: 30, MeanLatency: 30 * time.Millisecond, P99: 90 * time.Millisecond, EgressBytes: 7}}
	out := Merge(g1, g2)
	if len(out) != 1 {
		t.Fatalf("merge = %d entries", len(out))
	}
	ws := out[0]
	if ws.Requests != 40 || !almostEqual(ws.RPS, 40) || ws.EgressBytes != 12 {
		t.Errorf("merged = %+v", ws)
	}
	// Weighted mean: (10*10 + 30*30)/40 = 25ms.
	if ws.MeanLatency != 25*time.Millisecond {
		t.Errorf("mean = %v, want 25ms", ws.MeanLatency)
	}
	if ws.P99 != 90*time.Millisecond {
		t.Errorf("p99 = %v, want max 90ms", ws.P99)
	}
}

func TestMergeDisjointKeys(t *testing.T) {
	a := MetricKey{Service: "a"}
	b := MetricKey{Service: "b"}
	out := Merge(
		[]WindowStats{{Key: b, Requests: 1}},
		[]WindowStats{{Key: a, Requests: 2}},
	)
	if len(out) != 2 || out[0].Key != a || out[1].Key != b {
		t.Errorf("merge = %v", out)
	}
}

func TestHistogramQuantilePropertyBounds(t *testing.T) {
	// Property: quantile is between the quantiles at 0 and 1 (the exact
	// min and max) and monotone in q.
	f := func(vals []uint32) bool {
		if len(vals) == 0 {
			return true
		}
		h := DefaultHistogram()
		for _, v := range vals {
			h.Record(time.Duration(v) % (10 * time.Second))
		}
		prev := time.Duration(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 1} {
			x := h.Quantile(q)
			if x < prev || x < h.Quantile(0) || x > h.Quantile(1) {
				return false
			}
			prev = x
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMergePreservesRequestCountsProperty(t *testing.T) {
	// Property: merging any grouping of windows preserves total request
	// counts and egress bytes per key.
	f := func(counts []uint8) bool {
		keys := []MetricKey{
			{Service: "a", Class: "x", Cluster: "w"},
			{Service: "b", Class: "y", Cluster: "e"},
		}
		var groups [][]WindowStats
		want := map[MetricKey]uint64{}
		for i, c := range counts {
			k := keys[i%2]
			ws := WindowStats{Key: k, Requests: uint64(c), RPS: float64(c), EgressBytes: int64(c)}
			groups = append(groups, []WindowStats{ws})
			want[k] += uint64(c)
		}
		merged := Merge(groups...)
		got := map[MetricKey]uint64{}
		var gotEgress int64
		for _, ws := range merged {
			got[ws.Key] += ws.Requests
			gotEgress += ws.EgressBytes
		}
		var wantEgress int64
		for _, v := range want {
			wantEgress += int64(v)
		}
		if gotEgress != wantEgress {
			return false
		}
		for k, v := range want {
			if v > 0 && got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
