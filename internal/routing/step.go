package routing

import (
	"cmp"
	"math"
	"slices"

	"github.com/servicelayernetworking/slate/internal/topology"
)

// sortedClusters returns m's keys in sorted order. Float accumulation
// over delta maps goes through this so no distance or blend depends on
// map iteration order.
func sortedClusters[V any](m map[topology.ClusterID]V) []topology.ClusterID {
	ids := make([]topology.ClusterID, 0, len(m))
	for c := range m {
		ids = append(ids, c)
	}
	slices.Sort(ids)
	return ids
}

// Delta describes how one rule changed between two tables.
type Delta struct {
	Key Key
	// Moves maps each cluster to the weight change (new − old) in
	// [-1, 1]. Clusters absent from both distributions are omitted.
	Moves map[topology.ClusterID]float64
}

// TotalMove returns the L1/2 distance of the delta — the fraction of
// traffic that changes destination.
func (d Delta) TotalMove() float64 {
	var sum float64
	for _, c := range sortedClusters(d.Moves) {
		sum += math.Abs(d.Moves[c])
	}
	return sum / 2
}

// Diff compares two tables and returns a delta for every key whose
// distribution changed. Keys present in only one table are compared
// against the implicit local-only rule of the other.
func Diff(old, new *Table) []Delta {
	keys := map[Key]bool{}
	for k := range old.rules {
		keys[k] = true
	}
	for k := range new.rules {
		keys[k] = true
	}
	ordered := make([]Key, 0, len(keys))
	for k := range keys {
		ordered = append(ordered, k)
	}
	slices.SortFunc(ordered, compareKeys)
	var out []Delta
	for _, k := range ordered {
		ow := old.Lookup(k.Service, k.Class, k.Cluster).Weights()
		nw := new.Lookup(k.Service, k.Class, k.Cluster).Weights()
		moves := map[topology.ClusterID]float64{}
		for c, w := range nw {
			moves[c] = w - ow[c]
		}
		for c, w := range ow {
			if _, ok := nw[c]; !ok {
				moves[c] = -w
			}
		}
		changed := false
		for c, m := range moves {
			if math.Abs(m) < 1e-12 {
				delete(moves, c)
				continue
			}
			changed = true
		}
		if changed {
			out = append(out, Delta{Key: k, Moves: moves})
		}
	}
	// out is already sorted: it was built by iterating ordered keys.
	return out
}

// Equal reports whether two tables route identically: exactly
// len(Diff(a, b)) == 0 — the same Lookup fallbacks for keys only one
// table holds, the same 1e-12 threshold — without building the deltas.
//
//slate:hot
func Equal(a, b *Table) bool { return a.answers(b) && b.answers(a) }

// answers reports whether t's lookup agrees with every rule of u.
func (t *Table) answers(u *Table) bool {
	for k, d := range u.rules {
		if moved(d, t.Lookup(k.Service, k.Class, k.Cluster)) {
			return false
		}
	}
	return true
}

// moved is Diff's per-rule test: some cluster's weight differs by 1e-12
// or more, a cluster absent from one side weighing zero there.
func moved(od, nd Distribution) bool {
	for i, c := range nd.clusters {
		if !(math.Abs(nd.weights[i]-od.Weight(c)) < 1e-12) {
			return true
		}
	}
	for i, c := range od.clusters {
		if !(od.weights[i] < 1e-12) && !slices.Contains(nd.clusters, c) {
			return true
		}
	}
	return false
}

// compareKeys orders keys by service, class, then cluster.
func compareKeys(a, b Key) int {
	return cmp.Or(cmp.Compare(a.Service, b.Service), cmp.Compare(a.Class, b.Class), cmp.Compare(a.Cluster, b.Cluster))
}

// Step moves each rule of cur at most maxStep of traffic weight toward
// target, returning the intermediate table (with the target's version).
// This is the paper's §5 "resilience to prediction error" guardrail: if
// the optimizer suggests a large shift, roll it out incrementally and
// let telemetry confirm the objective improves before continuing.
// maxStep outside (0, 1] applies the target immediately.
func Step(cur, target *Table, maxStep float64) *Table {
	if maxStep <= 0 || maxStep >= 1 {
		return target
	}
	keys := map[Key]bool{}
	for k := range cur.rules {
		keys[k] = true
	}
	for k := range target.rules {
		keys[k] = true
	}
	rules := make(map[Key]Distribution, len(keys))
	for k := range keys {
		ow := cur.Lookup(k.Service, k.Class, k.Cluster).Weights()
		nw := target.Lookup(k.Service, k.Class, k.Cluster).Weights()
		// Fraction of traffic that would move if applied outright.
		var move float64
		all := map[topology.ClusterID]bool{}
		for c := range ow {
			all[c] = true
		}
		for c := range nw {
			all[c] = true
		}
		ids := sortedClusters(all)
		for _, c := range ids {
			move += math.Abs(nw[c] - ow[c])
		}
		move /= 2
		alpha := 1.0
		if move > maxStep {
			alpha = maxStep / move
		}
		blend := make(map[topology.ClusterID]float64, len(all))
		for _, c := range ids {
			w := ow[c] + alpha*(nw[c]-ow[c])
			if w > 1e-12 {
				blend[c] = w
			}
		}
		d, err := NewDistribution(blend)
		if err != nil {
			// Degenerate (shouldn't happen: weights sum to 1); keep old.
			d = cur.Lookup(k.Service, k.Class, k.Cluster)
		}
		rules[k] = d
	}
	return NewTable(target.Version, rules)
}
