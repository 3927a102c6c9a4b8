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
