package routing

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/servicelayernetworking/slate/internal/topology"
)

func patchDist(t *testing.T, w map[topology.ClusterID]float64) Distribution {
	t.Helper()
	d, err := NewDistribution(w)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func tablesEquivalent(a, b *Table) bool {
	if a.Len() != b.Len() {
		return false
	}
	for _, k := range a.Keys() {
		da, _ := a.Get(k)
		db, ok := b.Get(k)
		if !ok {
			return false
		}
		for _, c := range da.Clusters() {
			if math.Abs(da.Weight(c)-db.Weight(c)) > 1e-12 {
				return false
			}
		}
	}
	return true
}

func TestMakePatchAndApplyRoundTrip(t *testing.T) {
	old := NewTable(3, map[Key]Distribution{
		{Service: "a", Class: "d", Cluster: topology.West}: patchDist(t, map[topology.ClusterID]float64{topology.West: 1}),
		{Service: "b", Class: "d", Cluster: topology.West}: patchDist(t, map[topology.ClusterID]float64{topology.West: 0.5, topology.East: 0.5}),
		{Service: "c", Class: "d", Cluster: topology.East}: patchDist(t, map[topology.ClusterID]float64{topology.East: 1}),
	})
	new := NewTable(4, map[Key]Distribution{
		// unchanged
		{Service: "a", Class: "d", Cluster: topology.West}: patchDist(t, map[topology.ClusterID]float64{topology.West: 1}),
		// changed weights
		{Service: "b", Class: "d", Cluster: topology.West}: patchDist(t, map[topology.ClusterID]float64{topology.West: 0.25, topology.East: 0.75}),
		// "c" removed, "d" added
		{Service: "d", Class: "d", Cluster: topology.East}: patchDist(t, map[topology.ClusterID]float64{topology.West: 1}),
	})

	p := MakePatch(old, new)
	if p.Full {
		t.Fatal("incremental patch marked Full")
	}
	if p.FromVersion != 3 || p.Version != 4 {
		t.Fatalf("patch versions = %d->%d, want 3->4", p.FromVersion, p.Version)
	}
	if len(p.Set) != 2 || len(p.Del) != 1 {
		t.Fatalf("patch set/del = %d/%d, want 2/1", len(p.Set), len(p.Del))
	}

	got, err := old.Apply(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 4 || !tablesEquivalent(got, new) {
		t.Fatalf("applied table != target:\n%v\nvs\n%v", got, new)
	}
}

func TestPatchSmallerThanFullTable(t *testing.T) {
	// With mostly unchanged rules (the steady-state control-plane case),
	// the patch must be much smaller on the wire than the full table.
	rules := map[Key]Distribution{}
	for i := 0; i < 20; i++ {
		rules[Key{Service: fmt.Sprintf("svc-%02d", i), Class: "d", Cluster: topology.West}] =
			patchDist(t, map[topology.ClusterID]float64{topology.West: 1})
	}
	old := NewTable(1, rules)
	changed := map[Key]Distribution{}
	for k, d := range rules {
		changed[k] = d
	}
	changed[Key{Service: "svc-00", Class: "d", Cluster: topology.West}] =
		patchDist(t, map[topology.ClusterID]float64{topology.West: 0.5, topology.East: 0.5})
	new := NewTable(2, changed)

	p := MakePatch(old, new)
	full, _ := json.Marshal(new)
	if p.WireBytes()*4 >= len(full) {
		t.Errorf("patch bytes %d not well below full table bytes %d", p.WireBytes(), len(full))
	}
}

func TestApplyVersionGap(t *testing.T) {
	old := NewTable(3, nil)
	p := &Patch{FromVersion: 5, Version: 6}
	if _, err := old.Apply(p); !errors.Is(err, ErrVersionGap) {
		t.Fatalf("gap apply error = %v, want ErrVersionGap", err)
	}
	// A Full patch heals the gap regardless of the base version.
	target := NewTable(6, map[Key]Distribution{
		{Service: "a", Class: "d", Cluster: topology.West}: patchDist(t, map[topology.ClusterID]float64{topology.East: 1}),
	})
	got, err := old.Apply(FullPatch(target))
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 6 || !tablesEquivalent(got, target) {
		t.Fatalf("full resync produced %v, want %v", got, target)
	}
}

func TestMakePatchNilBaseIsFull(t *testing.T) {
	target := NewTable(2, map[Key]Distribution{
		{Service: "a", Class: "d", Cluster: topology.West}: patchDist(t, map[topology.ClusterID]float64{topology.West: 1}),
	})
	p := MakePatch(nil, target)
	if !p.Full {
		t.Fatal("nil base should produce a Full patch")
	}
	got, err := EmptyTable().Apply(p)
	if err != nil {
		t.Fatal(err)
	}
	if !tablesEquivalent(got, target) {
		t.Fatalf("full patch apply mismatch: %v", got)
	}
}

func TestEmptyPatch(t *testing.T) {
	tab := NewTable(7, map[Key]Distribution{
		{Service: "a", Class: "d", Cluster: topology.West}: patchDist(t, map[topology.ClusterID]float64{topology.West: 1}),
	})
	same := NewTable(8, tab.RulesForCluster(topology.West))
	p := MakePatch(tab, same)
	if !p.Empty() {
		t.Fatalf("identical rules should make an empty patch, got %+v", p)
	}
	got, err := tab.Apply(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 8 || got.Len() != 1 {
		t.Fatalf("empty patch apply: v%d len %d", got.Version, got.Len())
	}
}

func TestPatchJSONRoundTrip(t *testing.T) {
	old := NewTable(1, map[Key]Distribution{
		{Service: "a", Class: "d", Cluster: topology.West}: patchDist(t, map[topology.ClusterID]float64{topology.West: 1}),
	})
	new := NewTable(2, map[Key]Distribution{
		{Service: "b", Class: "d", Cluster: topology.West}: patchDist(t, map[topology.ClusterID]float64{topology.West: 0.5, topology.East: 0.5}),
	})
	p := MakePatch(old, new)
	body, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var got Patch
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	applied, err := old.Apply(&got)
	if err != nil {
		t.Fatal(err)
	}
	if !tablesEquivalent(applied, new) {
		t.Fatalf("wire round trip lost rules: %v", applied)
	}
}

func TestRestrict(t *testing.T) {
	tab := NewTable(9, map[Key]Distribution{
		{Service: "a", Class: "d", Cluster: topology.West}: patchDist(t, map[topology.ClusterID]float64{topology.West: 1}),
		{Service: "a", Class: "d", Cluster: topology.East}: patchDist(t, map[topology.ClusterID]float64{topology.East: 1}),
	})
	w := tab.Restrict(topology.West)
	if w.Version != 9 || w.Len() != 1 {
		t.Fatalf("restricted table: v%d len %d", w.Version, w.Len())
	}
	if _, ok := w.Get(Key{Service: "a", Class: "d", Cluster: topology.East}); ok {
		t.Error("restricted table kept a foreign-cluster rule")
	}
}

func TestApplyRejectsBadPatchRule(t *testing.T) {
	p := &Patch{Version: 1, Full: true, Set: []wireRule{{
		Service: "a", Class: "d", Cluster: topology.West,
		Weights: map[topology.ClusterID]float64{topology.West: -1},
	}}}
	if _, err := EmptyTable().Apply(p); err == nil {
		t.Fatal("negative weight accepted")
	}
}

// TestApplyKeepAliveReturnsReceiver: the empty same-version patch the
// global controller sends when nothing changed yields the receiver
// itself (tables are immutable, the result would be equal), while an
// empty patch that bumps the version still yields a new table.
func TestApplyKeepAliveReturnsReceiver(t *testing.T) {
	base := NewTable(7, map[Key]Distribution{{Service: "s", Class: "c", Cluster: "west"}: Local("east")})
	same, err := base.Apply(&Patch{FromVersion: 7, Version: 7})
	if err != nil || same != base {
		t.Fatalf("Apply(keep-alive) = %p, %v; want the receiver %p", same, err, base)
	}
	bumped, err := base.Apply(&Patch{FromVersion: 7, Version: 8})
	if err != nil || bumped == base || bumped.Version != 8 || !Equal(base, bumped) {
		t.Fatalf("Apply(empty version bump) = %v, %v; want a new table at v8 with the same rules", bumped, err)
	}
	if _, err := base.Apply(&Patch{FromVersion: 6, Version: 6}); !errors.Is(err, ErrVersionGap) {
		t.Fatalf("Apply(keep-alive from v6) err = %v, want ErrVersionGap", err)
	}
	full, err := base.Apply(&Patch{Version: 7, Full: true})
	if err != nil || full == base || full.Len() != 0 {
		t.Fatalf("Apply(empty full patch) = %v, %v; want a new empty table", full, err)
	}
}

// TestWithVersionSharesRules: the re-stamped table answers every lookup
// like the original under its own version.
func TestWithVersionSharesRules(t *testing.T) {
	base := NewTable(3, map[Key]Distribution{{Service: "s", Class: "c", Cluster: "west"}: Local("east")})
	next := base.WithVersion(9)
	if next.Version != 9 || base.Version != 3 || next.Len() != 1 || !Equal(base, next) {
		t.Fatalf("WithVersion(9) = %v from %v", next, base)
	}
	if p := MakePatch(base, next); !p.Empty() || p.FromVersion != 3 || p.Version != 9 {
		t.Fatalf("MakePatch(base, restamped) = %+v, want an empty version bump", p)
	}
}
