package telemetry

import "math"

// DeltaReport computes the incremental telemetry upload between two
// window snapshots: changed holds every stat of cur that is new or
// differs from prev beyond the relative epsilon, removed lists keys
// present in prev but absent from cur. The receiver folds changed into
// its per-cluster window and deletes removed, reconstructing the full
// window without the unchanged keys ever crossing the wire.
//
// Both windows must be Sorted (what Collect returns): the two are walked
// side by side, so a key out of order would read as removed and re-added.
func DeltaReport(prev, cur []WindowStats, eps float64) (changed []WindowStats, removed []MetricKey) {
	i := 0
	for j, ws := range cur {
		for ; i < len(prev) && prev[i].Key.Compare(ws.Key) < 0; i++ {
			removed = append(removed, prev[i].Key)
		}
		if i < len(prev) && prev[i].Key == ws.Key {
			i++
			if statsWithin(prev[i-1], ws, eps) {
				continue
			}
		}
		if changed == nil {
			changed = make([]WindowStats, 0, len(cur)-j)
		}
		changed = append(changed, ws)
	}
	for ; i < len(prev); i++ {
		removed = append(removed, prev[i].Key)
	}
	return changed, removed
}

// statsWithin reports whether two windows for the same key agree within
// the relative epsilon on every numeric field.
func statsWithin(a, b WindowStats, eps float64) bool {
	return within(float64(a.Window), float64(b.Window), eps) &&
		within(float64(a.Requests), float64(b.Requests), eps) &&
		within(a.RPS, b.RPS, eps) &&
		within(float64(a.MeanLatency), float64(b.MeanLatency), eps) &&
		within(float64(a.P50), float64(b.P50), eps) &&
		within(float64(a.P99), float64(b.P99), eps) &&
		within(float64(a.EgressBytes), float64(b.EgressBytes), eps)
}

func within(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
