package telemetry

import (
	"math"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
)

// searchIndex is the bucket search Record did before the O(1) index:
// the first bound >= d, or the overflow bucket.
func searchIndex(s *shape, d time.Duration) int {
	return sort.Search(len(s.bounds), func(i int) bool { return s.bounds[i] >= d })
}

// TestHistogramIndexMatchesSearch holds the O(1) bucket index to the
// binary search on every bucket bound and its two neighbours, for the
// default layout, a coarse one, and one whose growth is below 2^(1/16),
// so that one index key spans several bounds.
func TestHistogramIndexMatchesSearch(t *testing.T) {
	fine, err := newShape(time.Nanosecond, time.Millisecond, 1.01)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := newShape(time.Millisecond, time.Second, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	spans := 0
	for k := 1; k < len(fine.first); k++ {
		if fine.first[k]-fine.first[k-1] > 1 {
			spans++
		}
	}
	if spans == 0 {
		t.Fatal("no key of the fine layout spans several bounds: the step past first[key] goes untested")
	}
	for name, s := range map[string]*shape{"default": defaultShape, "fine": fine, "coarse": coarse} {
		probes := []time.Duration{0, 1, math.MaxInt64}
		for _, b := range s.bounds {
			probes = append(probes, b-1, b, b+1)
		}
		for _, d := range probes {
			if got, want := s.index(d), searchIndex(s, d); got != want {
				t.Errorf("%s layout: index(%d) = %d, sort.Search = %d", name, d, got, want)
			}
		}
	}
}

// FuzzHistogramIndex checks the O(1) bucket index against sort.Search on
// arbitrary layouts and values.
func FuzzHistogramIndex(f *testing.F) {
	f.Add(int64(10*time.Microsecond), int64(100*time.Second), 1.05, int64(4*time.Millisecond))
	f.Add(int64(1), int64(time.Millisecond), 1.01, int64(33))
	f.Add(int64(time.Millisecond), int64(time.Second), 1.5, int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, min, max int64, growth float64, d int64) {
		if min <= 0 || max <= min || !(growth >= 1.001 && growth <= 16) ||
			math.Log(float64(max)/float64(min))/math.Log(growth) > 1e5 {
			t.Skip()
		}
		s, err := newShape(time.Duration(min), time.Duration(max), growth)
		if err != nil {
			t.Fatal(err)
		}
		if d < 0 {
			d = -(d + 1)
		}
		if got, want := s.index(time.Duration(d)), searchIndex(s, time.Duration(d)); got != want {
			t.Fatalf("layout [%d, %d] × %v: index(%d) = %d, sort.Search = %d", min, max, growth, d, got, want)
		}
	})
}

// TestDefaultLayoutSharedAcrossGoroutines: histograms on several
// goroutines read the one default layout at once (run under -race) and
// count exactly what a histogram on one goroutine counts.
func TestDefaultLayoutSharedAcrossGoroutines(t *testing.T) {
	record := func(h *Histogram) {
		for i := range 2000 {
			h.Record(time.Duration(i*i) * time.Microsecond)
		}
	}
	want := DefaultHistogram()
	record(want)
	got := make([]*Histogram, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = DefaultHistogram()
			record(got[g])
		}()
	}
	wg.Wait()
	for g, h := range got {
		if !slices.Equal(h.counts, want.counts) {
			t.Errorf("goroutine %d counted differently from one goroutine", g)
		}
	}
}

// TestDefaultHistogramsIndependent holds the histograms of one
// DefaultHistograms slab apart: each one's counts is capped at its own
// buckets, filling one to its overflow bucket leaves its neighbours at
// zero, and each, fed its own samples alongside a DefaultHistogram, reads
// the same Count, Mean and quantiles bit for bit, before and after Reset.
func TestDefaultHistogramsIndependent(t *testing.T) {
	const n = 4
	hs := DefaultHistograms(n)
	w := len(defaultShape.bounds) + 1
	for i := range hs {
		if len(hs[i].counts) != w || cap(hs[i].counts) != w {
			t.Fatalf("histogram %d: counts len %d cap %d, want both %d", i, len(hs[i].counts), cap(hs[i].counts), w)
		}
	}
	for range 1000 {
		hs[1].Record(time.Hour) // past the last bound: the overflow bucket
	}
	if got := hs[1].counts[w-1]; got != 1000 {
		t.Fatalf("overflow bucket holds %d, want 1000", got)
	}
	for _, i := range []int{0, 2, 3} {
		if hs[i].Count() != 0 || slices.ContainsFunc(hs[i].counts, func(c uint64) bool { return c != 0 }) {
			t.Fatalf("histogram %d picked up counts from its neighbour", i)
		}
	}
	hs[1].Reset()

	refs := make([]*Histogram, n)
	for i := range refs {
		refs[i] = DefaultHistogram()
	}
	same := func(what string) {
		t.Helper()
		for i := range hs {
			got, want := &hs[i], refs[i]
			if got.Count() != want.Count() || got.Mean() != want.Mean() {
				t.Fatalf("%s: histogram %d reads count %d mean %v, DefaultHistogram %d %v",
					what, i, got.Count(), got.Mean(), want.Count(), want.Mean())
			}
			for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
				if got.Quantile(q) != want.Quantile(q) {
					t.Fatalf("%s: histogram %d q%v = %v, DefaultHistogram %v", what, i, q, got.Quantile(q), want.Quantile(q))
				}
			}
		}
	}
	for round := range 3 {
		for k := range 20000 {
			// Spread over the whole layout: below its first bound, into
			// its overflow bucket and everything between.
			x := uint64(round*20000+k+1) * 0x9e3779b97f4a7c15
			d := time.Duration(x >> (27 + x%31))
			hs[k%n].Record(d)
			refs[k%n].Record(d)
		}
		same("filled")
		for i := range hs {
			hs[i].Reset()
			refs[i].Reset()
		}
		same("reset")
	}
}
