package routing

import (
	"fmt"
	"testing"

	"github.com/servicelayernetworking/slate/internal/topology"
)

// TestLookupAndPickAllocationFree pins the data-plane hot path at zero
// heap allocations per request — both the rule-hit path and the
// local-fallback path (which interns its distributions).
func TestLookupAndPickAllocationFree(t *testing.T) {
	d, err := NewDistribution(map[topology.ClusterID]float64{
		"or": 0.4, "ut": 0.3, "iow": 0.2, "sc": 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable(1, map[Key]Distribution{
		{Service: "svc", Class: "H", Cluster: "or"}: d,
	})
	Local("ut") // warm the intern cache outside the measured region

	if n := testing.AllocsPerRun(100, func() {
		dist := tab.Lookup("svc", "H", "or")
		if dist.Pick(0.5) == "" {
			t.Fatal("empty pick")
		}
	}); n != 0 { //slate:nolint floatcmp -- AllocsPerRun returns an integer-valued count
		t.Fatalf("rule-hit Lookup+Pick allocates %v per run, want 0", n)
	}

	if n := testing.AllocsPerRun(100, func() {
		dist := tab.Lookup("svc", "nope", "ut") // no rule: local fallback
		if dist.Pick(0.5) != "ut" {
			t.Fatal("fallback must route local")
		}
	}); n != 0 { //slate:nolint floatcmp -- AllocsPerRun returns an integer-valued count
		t.Fatalf("local-fallback Lookup+Pick allocates %v per run, want 0", n)
	}
}

// TestEqualAllocationFree pins the controller's per-tick "did the table
// change" test at zero heap allocations, whatever the rule count.
func TestEqualAllocationFree(t *testing.T) {
	rules := map[Key]Distribution{}
	for _, c := range []topology.ClusterID{"or", "ut", "iow", "sc"} {
		d, err := NewDistribution(map[topology.ClusterID]float64{c: 0.6, "or": 0.2, "sc": 0.2})
		if err != nil {
			t.Fatal(err)
		}
		rules[Key{Service: "svc", Class: "H", Cluster: c}] = d
		rules[Key{Service: "svc", Class: AnyClass, Cluster: c}] = Local(c)
	}
	b := NewTable(2, rules)
	delete(rules, Key{Service: "svc", Class: AnyClass, Cluster: "ut"}) // b's rule equals a's implicit local one
	a := NewTable(1, rules)
	if n := testing.AllocsPerRun(100, func() {
		if !Equal(a, b) || !Equal(b, a) {
			t.Fatal("tables must compare equal")
		}
	}); n != 0 { //slate:nolint floatcmp -- AllocsPerRun returns an integer-valued count
		t.Fatalf("Equal allocates %v per run, want 0", n)
	}
}

// TestNewDistributionAllocs pins the rule constructor at two heap
// allocations, whatever the cluster count: the clusters it keeps and
// their weights. Sorting the clusters allocates nothing.
func TestNewDistributionAllocs(t *testing.T) {
	for _, n := range []int{1, 4, 48} {
		w := make(map[topology.ClusterID]float64, n)
		for i := range n {
			w[topology.ClusterID(fmt.Sprintf("c-%02d", i))] = float64(i%5 + 1)
		}
		if got := testing.AllocsPerRun(100, func() {
			if _, err := NewDistribution(w); err != nil {
				t.Fatal(err)
			}
		}); got != 2 { //slate:nolint floatcmp -- AllocsPerRun returns an integer-valued count
			t.Errorf("NewDistribution over %d clusters allocates %v per call, want 2", n, got)
		}
	}
}
