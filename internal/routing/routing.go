// Package routing defines SLATE's routing rules and rule tables.
//
// A rule answers: "for requests of traffic class K arriving at service S
// in cluster C, what fraction goes to each cluster?" (paper §3.3: "each
// routing rule specifies the fraction of requests of a certain traffic
// class that should be sent to a certain cluster; standard load
// balancing will then select the server within the cluster"). Rule
// tables are immutable snapshots swapped atomically into the data plane.
package routing

import (
	"fmt"
	"iter"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"

	"github.com/servicelayernetworking/slate/internal/topology"
)

// AnyClass is the wildcard class in a rule key: it matches requests
// whose class has no dedicated rule. Class-blind policies (Waterfall)
// install only AnyClass rules.
const AnyClass = "*"

// Key addresses one rule: class-K requests for service S arriving in
// cluster C.
type Key struct {
	Service string
	Class   string
	Cluster topology.ClusterID
}

func (k Key) String() string {
	return fmt.Sprintf("%s[%s]@%s", k.Service, k.Class, k.Cluster)
}

// Distribution is a normalized weighted choice over destination
// clusters. Construct with NewDistribution; the zero value routes
// nothing.
type Distribution struct {
	clusters []topology.ClusterID // sorted for determinism
	weights  []float64            // parallel to clusters, sums to 1
}

// NewDistribution builds a distribution from weights. Weights must be
// non-negative and sum to a positive value; they are normalized to 1.
func NewDistribution(weights map[topology.ClusterID]float64) (Distribution, error) {
	clusters, ws, err := sortedWeights(weights)
	if err != nil {
		return Distribution{}, err
	}
	return NewSortedDistribution(clusters, ws)
}

// sortedWeights returns the positive entries of weights as parallel
// slices in ascending cluster order, or an error naming a weight that is
// negative, NaN or infinite.
func sortedWeights(weights map[topology.ClusterID]float64) ([]topology.ClusterID, []float64, error) {
	clusters := make([]topology.ClusterID, 0, len(weights))
	for c, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, nil, fmt.Errorf("routing: invalid weight %v for cluster %q", w, c)
		}
		if w > 0 {
			clusters = append(clusters, c)
		}
	}
	slices.Sort(clusters)
	ws := make([]float64, len(clusters))
	for i, c := range clusters {
		ws[i] = weights[c]
	}
	return clusters, ws, nil
}

// NewSortedDistribution builds a distribution over clusters, which must
// ascend strictly, with the parallel positive finite weights normalized
// to 1. It normalizes weights in place and keeps both slices, so the
// caller hands them over. On an error the result is the zero value,
// which routes nothing, and weights is left as it was.
func NewSortedDistribution(clusters []topology.ClusterID, weights []float64) (Distribution, error) {
	if len(clusters) != len(weights) {
		return Distribution{}, fmt.Errorf("routing: %d clusters but %d weights", len(clusters), len(weights))
	}
	if len(clusters) == 0 {
		return Distribution{}, fmt.Errorf("routing: distribution has no positive weights")
	}
	// Sum in ascending cluster order: float addition is not associative,
	// so the normalized weights (and everything downstream, like rule
	// fingerprints) are a function of the weights alone.
	var sum float64
	for i, w := range weights {
		if !(w > 0) || math.IsInf(w, 0) {
			return Distribution{}, fmt.Errorf("routing: invalid weight %v for cluster %q", w, clusters[i])
		}
		if i > 0 && clusters[i-1] >= clusters[i] {
			return Distribution{}, fmt.Errorf("routing: clusters %q, %q out of order", clusters[i-1], clusters[i])
		}
		sum += w
	}
	if math.IsInf(sum, 0) {
		// Individually finite weights can still overflow the sum, and
		// normalizing by +Inf would zero every weight.
		return Distribution{}, fmt.Errorf("routing: distribution weights overflow")
	}
	for i := range weights {
		weights[i] /= sum
	}
	return Distribution{clusters: clusters, weights: weights}, nil
}

// localCache interns the single-cluster distributions Lookup falls back
// to: the data-plane hot path hits Local on every request that has no
// matching rule, and distributions are immutable, so one shared value
// per cluster makes the fallback allocation-free.
var localCache sync.Map // topology.ClusterID -> Distribution

// Local returns a distribution sending 100% to one cluster.
//
//slate:hot
func Local(c topology.ClusterID) Distribution {
	if d, ok := localCache.Load(c); ok { //slate:nolint hotalloc -- sync.Map.Load does not retain its key, so escape analysis keeps the boxed ClusterID on the stack; the warm path is pinned at zero allocs by AllocsPerRun
		return d.(Distribution)
	}
	return internLocal(c)
}

// internLocal builds and interns the single-cluster distribution: the
// once-per-cluster slow path of Local.
//
//slate:cold
func internLocal(c topology.ClusterID) Distribution {
	d := Distribution{clusters: []topology.ClusterID{c}, weights: []float64{1}}
	actual, _ := localCache.LoadOrStore(c, d)
	return actual.(Distribution)
}

// Pick maps a uniform draw u in [0, 1) to a destination cluster.
// Deterministic: the same u always picks the same cluster.
//
//slate:hot
func (d Distribution) Pick(u float64) topology.ClusterID {
	if len(d.clusters) == 0 {
		return ""
	}
	var cum float64
	for i, w := range d.weights {
		cum += w
		if u < cum {
			return d.clusters[i]
		}
	}
	return d.clusters[len(d.clusters)-1] // guard against rounding
}

// Weight returns the normalized weight of cluster c (0 if absent).
func (d Distribution) Weight(c topology.ClusterID) float64 {
	for i, cl := range d.clusters {
		if cl == c {
			return d.weights[i]
		}
	}
	return 0
}

// All yields each destination cluster with positive weight and its
// normalized weight, in sorted cluster order. It reads the distribution
// in place: ranging over it allocates nothing.
func (d Distribution) All() iter.Seq2[topology.ClusterID, float64] {
	return func(yield func(topology.ClusterID, float64) bool) {
		for i, c := range d.clusters {
			if !yield(c, d.weights[i]) {
				return
			}
		}
	}
}

// IsZero reports whether the distribution routes nothing.
//
//slate:hot
func (d Distribution) IsZero() bool { return len(d.clusters) == 0 }

func (d Distribution) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, c := range d.clusters {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%.0f%%", c, d.weights[i]*100)
	}
	b.WriteByte('}')
	return b.String()
}

// Weights returns a copy of the normalized weight map.
func (d Distribution) Weights() map[topology.ClusterID]float64 {
	m := make(map[topology.ClusterID]float64, len(d.clusters))
	for i, c := range d.clusters {
		m[c] = d.weights[i]
	}
	return m
}

// Table is an immutable versioned set of routing rules. Lookup falls
// back from the exact class to AnyClass to local-only, so a data plane
// with a partial table still routes every request somewhere.
type Table struct {
	Version uint64
	rules   map[Key]Distribution
}

// NewTable builds a table from rules.
func NewTable(version uint64, rules map[Key]Distribution) *Table {
	t := &Table{Version: version, rules: make(map[Key]Distribution, len(rules))}
	for k, d := range rules {
		t.rules[k] = d
	}
	return t
}

// Union returns one table holding the rules of every table, stamped
// with version. The tables' keys should be disjoint: where two hold the
// same key, the later table's rule is kept.
func Union(version uint64, tables []*Table) *Table {
	n := 0
	for _, t := range tables {
		n += len(t.rules)
	}
	u := &Table{Version: version, rules: make(map[Key]Distribution, n)}
	for _, t := range tables {
		maps.Copy(u.rules, t.rules)
	}
	return u
}

// EmptyTable returns a table with no rules (everything routes local).
func EmptyTable() *Table { return NewTable(0, nil) }

// WithVersion returns the same rules under another version. Tables are
// immutable, so the two share one rule set instead of NewTable's copy.
func (t *Table) WithVersion(version uint64) *Table {
	return &Table{Version: version, rules: t.rules}
}

// Lookup resolves the distribution for a request of the given class for
// service svc arriving in cluster c: exact class rule, else AnyClass
// rule, else 100% local.
//
//slate:hot
func (t *Table) Lookup(svc, class string, c topology.ClusterID) Distribution {
	if d, ok := t.rules[Key{svc, class, c}]; ok {
		return d
	}
	if d, ok := t.rules[Key{svc, AnyClass, c}]; ok {
		return d
	}
	return Local(c)
}

// Get returns the exact rule for key, if present.
func (t *Table) Get(k Key) (Distribution, bool) {
	d, ok := t.rules[k]
	return d, ok
}

// Len returns the number of rules.
func (t *Table) Len() int { return len(t.rules) }

// Keys returns all rule keys in deterministic order.
func (t *Table) Keys() []Key {
	out := make([]Key, 0, len(t.rules))
	for k := range t.rules {
		out = append(out, k)
	}
	slices.SortFunc(out, compareKeys)
	return out
}

// RulesForCluster returns the subset of rules whose source is cluster c
// — what the global controller pushes to that cluster's controller.
func (t *Table) RulesForCluster(c topology.ClusterID) map[Key]Distribution {
	out := make(map[Key]Distribution)
	for k, d := range t.rules {
		if k.Cluster == c {
			out[k] = d
		}
	}
	return out
}

// Validate checks every rule against the topology: source and
// destination clusters must exist and weights must be normalized.
func (t *Table) Validate(top *topology.Topology) error {
	for k, d := range t.rules {
		if !top.Has(k.Cluster) {
			return fmt.Errorf("routing: rule %v has unknown source cluster", k)
		}
		var sum float64
		for i, c := range d.clusters {
			if !top.Has(c) {
				return fmt.Errorf("routing: rule %v routes to unknown cluster %q", k, c)
			}
			sum += d.weights[i]
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("routing: rule %v weights sum to %v, want 1", k, sum)
		}
	}
	return nil
}

// String renders the table for logs and slatectl output.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "routing table v%d (%d rules)\n", t.Version, len(t.rules))
	for _, k := range t.Keys() {
		fmt.Fprintf(&b, "  %-40s -> %s\n", k.String(), t.rules[k].String())
	}
	return b.String()
}
