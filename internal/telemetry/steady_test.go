package telemetry

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// Reference implementations: Merge and DeltaReport of commit fa64b4b,
// kept verbatim as what the sorted versions must reproduce.

func refMerge(groups ...[]WindowStats) []WindowStats {
	acc := make(map[MetricKey]*WindowStats)
	for _, g := range groups {
		for _, ws := range g {
			cur, ok := acc[ws.Key]
			if !ok {
				copyWS := ws
				acc[ws.Key] = &copyWS
				continue
			}
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
	}
	out := make([]WindowStats, 0, len(acc))
	for _, ws := range acc {
		out = append(out, *ws)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.Service != b.Service {
			return a.Service < b.Service
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		return a.Cluster < b.Cluster
	})
	return out
}

func refDeltaReport(prev, cur []WindowStats, eps float64) (changed []WindowStats, removed []MetricKey) {
	prevBy := make(map[MetricKey]WindowStats, len(prev))
	for _, ws := range prev {
		prevBy[ws.Key] = ws
	}
	for _, ws := range cur {
		old, ok := prevBy[ws.Key]
		if !ok || !statsWithin(old, ws, eps) {
			changed = append(changed, ws)
		}
		delete(prevBy, ws.Key)
	}
	for _, ws := range prev {
		if _, gone := prevBy[ws.Key]; gone {
			removed = append(removed, ws.Key)
		}
	}
	return changed, removed
}

func randWindow(rng *rand.Rand, n, clusters int) []WindowStats {
	ws := make([]WindowStats, n)
	for i := range ws {
		ws[i] = WindowStats{
			Key: MetricKey{
				Service: fmt.Sprintf("svc-%d", rng.Intn(6)),
				Class:   []string{"", "a", "b"}[rng.Intn(3)],
				Cluster: fmt.Sprintf("c%d", rng.Intn(clusters)),
			},
			Window:      time.Duration(1+rng.Intn(3)) * time.Second,
			Requests:    uint64(rng.Intn(4) * rng.Intn(500)),
			RPS:         rng.Float64() * 300,
			MeanLatency: time.Duration(rng.Intn(1e8)),
			P50:         time.Duration(rng.Intn(1e8)),
			P99:         time.Duration(rng.Intn(1e9)),
			EgressBytes: int64(rng.Intn(1 << 20)),
		}
	}
	return ws
}

// TestSteadyPathMatchesFullRecompute: on randomized windows the sorted
// Merge and DeltaReport return exactly what the map-based references
// return — every float bit-equal, same order — for unsorted groups with
// keys repeated within and across them, for per-cluster sorted groups
// (the global's fan-in), and for a single sorted group (a copy).
func TestSteadyPathMatchesFullRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for iter := 0; iter < 500; iter++ {
		var groups [][]WindowStats
		for g := rng.Intn(6); g > 0; g-- {
			w := randWindow(rng, rng.Intn(12), 1+rng.Intn(4))
			if rng.Intn(2) == 0 {
				w = refMerge(w) // sorted, as a cluster or a proxy reports it
			}
			groups = append(groups, w)
		}
		got, want := Merge(groups...), refMerge(groups...)
		if got == nil || len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("iter %d: Merge(%v)\n got %v\nwant %v", iter, groups, got, want)
		}
		if !Sorted(got) {
			t.Fatalf("iter %d: Merge output is not Sorted: %v", iter, got)
		}

		// DeltaReport on two Sorted windows sharing most keys, some stats
		// moved by more and some by less than the epsilon.
		prev := refMerge(randWindow(rng, rng.Intn(14), 2))
		cur := append([]WindowStats(nil), prev...)
		for i := range cur {
			switch rng.Intn(4) {
			case 0:
				cur[i].RPS *= 1.01
			case 1:
				cur[i].RPS *= 1 + 1e-13
			}
		}
		cur = refMerge(cur[rng.Intn(len(cur)+1)/2:], refMerge(randWindow(rng, rng.Intn(4), 2)))
		changed, removed := DeltaReport(prev, cur, 1e-9)
		wantChanged, wantRemoved := refDeltaReport(prev, cur, 1e-9)
		if !reflect.DeepEqual(changed, wantChanged) || !reflect.DeepEqual(removed, wantRemoved) {
			t.Fatalf("iter %d: DeltaReport(%v, %v)\n got %v / %v\nwant %v / %v", iter, prev, cur, changed, removed, wantChanged, wantRemoved)
		}
	}
}

// TestMergeSingleSortedGroupIsACopy: the common fan-in of one — a cluster
// controller collecting one pushed batch — comes back equal but not
// aliased, because Collect then stamps its cluster id onto the result.
func TestMergeSingleSortedGroupIsACopy(t *testing.T) {
	in := []WindowStats{dws("a", 1), dws("b", 2), dws("c", 3)}
	out := Merge(in, nil)
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("Merge(sorted) = %v, want %v", out, in)
	}
	out[0].Key.Cluster = "stamped"
	if in[0].Key.Cluster != "west" {
		t.Fatal("Merge returned its input's backing array")
	}
	if n := testing.AllocsPerRun(100, func() { Merge(in, nil) }); n != 1 { //slate:nolint floatcmp -- AllocsPerRun returns an integer-valued count
		t.Errorf("Merge of one sorted group allocates %v objects, want 1 (the copy)", n)
	}
}

// TestSortedIsDeltaReportsPrecondition states the contract the two-pointer
// DeltaReport rests on: Sorted means strictly ascending keys, Flush and
// Merge return that shape, and a window that is not Sorted is the
// caller's to fix (Merge of it is).
func TestSortedIsDeltaReportsPrecondition(t *testing.T) {
	a, b := dws("a", 1), dws("b", 2)
	for _, tc := range []struct {
		ws   []WindowStats
		want bool
	}{
		{nil, true}, {[]WindowStats{a}, true}, {[]WindowStats{a, b}, true},
		{[]WindowStats{b, a}, false}, {[]WindowStats{a, a}, false},
	} {
		if got := Sorted(tc.ws); got != tc.want {
			t.Errorf("Sorted(%v) = %v, want %v", tc.ws, got, tc.want)
		}
	}
	agg := NewAggregator()
	for _, svc := range []string{"zz", "mm", "aa", "mm"} {
		agg.Record(MetricKey{Service: svc, Class: "d", Cluster: "west"}, time.Millisecond, 0)
	}
	if ws := agg.Flush(time.Second); !Sorted(ws) || len(ws) != 3 {
		t.Errorf("Flush output %v is not Sorted", ws)
	}
	if ws := Merge([]WindowStats{b, a, b}); !Sorted(ws) || len(ws) != 2 {
		t.Errorf("Merge output %v is not Sorted", ws)
	}
	// Out of order, a key reads as removed and re-added: the full stat
	// crosses the wire although nothing changed. Sorted input is exact.
	if changed, removed := DeltaReport([]WindowStats{b, a}, []WindowStats{a, b}, 1e-9); len(changed) == 0 && len(removed) == 0 {
		t.Error("DeltaReport on unsorted input happened to be exact; the precondition test is vacuous")
	}
	if changed, removed := DeltaReport([]WindowStats{a, b}, []WindowStats{a, b}, 1e-9); changed != nil || removed != nil {
		t.Errorf("DeltaReport(w, w) = %v / %v, want nothing", changed, removed)
	}
}
