package routing

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/servicelayernetworking/slate/internal/topology"
)

// TestDiffSortedDeterministic pins Diff's output order: deltas come
// back sorted by key and identical across repeated calls, even though
// the union of keys lives in a map. (Diff feeds rollout step logs and
// experiment reports, so its order is user-visible.)
func TestDiffSortedDeterministic(t *testing.T) {
	mustDist := func(w map[topology.ClusterID]float64) Distribution {
		d, err := NewDistribution(w)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	oldRules := map[Key]Distribution{}
	newRules := map[Key]Distribution{}
	for i := 0; i < 12; i++ {
		k := Key{Service: fmt.Sprintf("svc-%02d", i), Class: "default", Cluster: topology.West}
		oldRules[k] = mustDist(map[topology.ClusterID]float64{topology.West: 1})
		newRules[k] = mustDist(map[topology.ClusterID]float64{topology.West: 0.5, topology.East: 0.5})
	}
	oldTab := NewTable(1, oldRules)
	newTab := NewTable(2, newRules)

	first := Diff(oldTab, newTab)
	if len(first) != 12 {
		t.Fatalf("got %d deltas, want 12", len(first))
	}
	for i := 1; i < len(first); i++ {
		if compareKeys(first[i].Key, first[i-1].Key) < 0 {
			t.Errorf("deltas not sorted at %d: %v after %v", i, first[i].Key, first[i-1].Key)
		}
	}
	for run := 0; run < 20; run++ {
		if got := Diff(oldTab, newTab); !reflect.DeepEqual(got, first) {
			t.Fatalf("Diff not deterministic on run %d:\n%v\n%v", run, got, first)
		}
	}
}

// TestTotalMoveOrderIndependent pins the L1 distance against float
// summation order: the moves map mixes magnitudes whose sum differs in
// the last bits depending on addition order, so any map-order
// accumulation shows up as run-to-run jitter here (Go randomizes map
// iteration per range).
func TestTotalMoveOrderIndependent(t *testing.T) {
	moves := map[topology.ClusterID]float64{"huge": 1e16}
	for i := 0; i < 20; i++ {
		moves[topology.ClusterID(fmt.Sprintf("c-%02d", i))] = 1
	}
	d := Delta{Moves: moves}
	first := d.TotalMove()
	for run := 0; run < 200; run++ {
		if got := d.TotalMove(); got != first { //slate:nolint floatcmp -- bit-identical results across runs is the property under test
			t.Fatalf("TotalMove jitters: run %d got %v, first %v", run, got, first)
		}
	}
}
