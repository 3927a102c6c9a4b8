package routing

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/servicelayernetworking/slate/internal/topology"
)

func dist(t *testing.T, w map[topology.ClusterID]float64) Distribution {
	t.Helper()
	d, err := NewDistribution(w)
	if err != nil {
		t.Fatalf("NewDistribution: %v", err)
	}
	return d
}

func TestDistributionNormalizes(t *testing.T) {
	d := dist(t, map[topology.ClusterID]float64{"a": 2, "b": 6})
	if w := d.Weight("a"); math.Abs(w-0.25) > 1e-12 {
		t.Errorf("weight a = %v, want 0.25", w)
	}
	if w := d.Weight("b"); math.Abs(w-0.75) > 1e-12 {
		t.Errorf("weight b = %v, want 0.75", w)
	}
	if w := d.Weight("c"); !almostEqual(w, 0) {
		t.Errorf("weight c = %v, want 0", w)
	}
}

func TestDistributionErrors(t *testing.T) {
	if _, err := NewDistribution(map[topology.ClusterID]float64{"a": -1}); err == nil {
		t.Error("negative weight should error")
	}
	if _, err := NewDistribution(map[topology.ClusterID]float64{"a": 0}); err == nil {
		t.Error("all-zero weights should error")
	}
	if _, err := NewDistribution(nil); err == nil {
		t.Error("empty weights should error")
	}
	if _, err := NewDistribution(map[topology.ClusterID]float64{"a": math.NaN()}); err == nil {
		t.Error("NaN weight should error")
	}
}

func TestDistributionDropsZeroWeights(t *testing.T) {
	d := dist(t, map[topology.ClusterID]float64{"a": 1, "b": 0})
	if got := support(d); len(got) != 1 || got[0] != "a" {
		t.Errorf("support = %v, want [a]", got)
	}
}

func TestPickDeterministicBoundaries(t *testing.T) {
	d := dist(t, map[topology.ClusterID]float64{"a": 0.5, "b": 0.3, "c": 0.2})
	// Sorted order a, b, c with cumulative 0.5, 0.8, 1.0.
	cases := []struct {
		u    float64
		want topology.ClusterID
	}{
		{0, "a"}, {0.49, "a"}, {0.5, "b"}, {0.79, "b"}, {0.8, "c"}, {0.999, "c"},
	}
	for _, tc := range cases {
		if got := d.Pick(tc.u); got != tc.want {
			t.Errorf("Pick(%v) = %v, want %v", tc.u, got, tc.want)
		}
	}
}

func TestPickZeroDistribution(t *testing.T) {
	var d Distribution
	if got := d.Pick(0.5); got != "" {
		t.Errorf("Pick on zero distribution = %q, want empty", got)
	}
	if !d.IsZero() {
		t.Error("IsZero should be true")
	}
}

func TestPickFrequenciesMatchWeights(t *testing.T) {
	d := dist(t, map[topology.ClusterID]float64{"x": 0.7, "y": 0.3})
	counts := map[topology.ClusterID]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		u := (float64(i) + 0.5) / n // stratified
		counts[d.Pick(u)]++
	}
	if fx := float64(counts["x"]) / n; math.Abs(fx-0.7) > 0.001 {
		t.Errorf("frequency x = %v, want 0.7", fx)
	}
}

func TestLocal(t *testing.T) {
	d := Local("west")
	if d.Pick(0.99) != "west" || !almostEqual(d.Weight("west"), 1) {
		t.Error("Local distribution wrong")
	}
}

func TestTableLookupFallbacks(t *testing.T) {
	exact := dist(t, map[topology.ClusterID]float64{"a": 1})
	wild := dist(t, map[topology.ClusterID]float64{"b": 1})
	tab := NewTable(1, map[Key]Distribution{
		{"svc", "H", "west"}:      exact,
		{"svc", AnyClass, "west"}: wild,
	})
	if got := tab.Lookup("svc", "H", "west"); !almostEqual(got.Weight("a"), 1) {
		t.Error("exact class lookup failed")
	}
	if got := tab.Lookup("svc", "L", "west"); !almostEqual(got.Weight("b"), 1) {
		t.Error("wildcard fallback failed")
	}
	if got := tab.Lookup("svc", "L", "east"); !almostEqual(got.Weight("east"), 1) {
		t.Error("local fallback failed")
	}
	if got := tab.Lookup("other", "H", "west"); !almostEqual(got.Weight("west"), 1) {
		t.Error("unknown service should route local")
	}
}

func TestTableValidate(t *testing.T) {
	top := topology.TwoClusters(10 * time.Millisecond)
	good := NewTable(1, map[Key]Distribution{
		{"svc", "*", topology.West}: mustDist(map[topology.ClusterID]float64{topology.West: 0.6, topology.East: 0.4}),
	})
	if err := good.Validate(top); err != nil {
		t.Errorf("valid table rejected: %v", err)
	}
	badSrc := NewTable(1, map[Key]Distribution{
		{"svc", "*", "mars"}: Local(topology.West),
	})
	if err := badSrc.Validate(top); err == nil {
		t.Error("unknown source cluster accepted")
	}
	badDst := NewTable(1, map[Key]Distribution{
		{"svc", "*", topology.West}: Local("mars"),
	})
	if err := badDst.Validate(top); err == nil {
		t.Error("unknown destination cluster accepted")
	}
}

func mustDist(w map[topology.ClusterID]float64) Distribution {
	d, err := NewDistribution(w)
	if err != nil {
		panic(err)
	}
	return d
}

func TestTableKeysDeterministic(t *testing.T) {
	tab := NewTable(1, map[Key]Distribution{
		{"b", "*", "x"}: Local("x"),
		{"a", "z", "y"}: Local("y"),
		{"a", "a", "y"}: Local("y"),
	})
	keys := tab.Keys()
	if keys[0].Service != "a" || keys[0].Class != "a" || keys[2].Service != "b" {
		t.Errorf("Keys order = %v", keys)
	}
}

func TestRulesForCluster(t *testing.T) {
	tab := NewTable(1, map[Key]Distribution{
		{"s", "*", "west"}: Local("west"),
		{"s", "*", "east"}: Local("east"),
	})
	got := tab.RulesForCluster("west")
	if len(got) != 1 {
		t.Fatalf("RulesForCluster = %d rules, want 1", len(got))
	}
	for k := range got {
		if k.Cluster != "west" {
			t.Errorf("wrong cluster %v", k)
		}
	}
}

func TestDiff(t *testing.T) {
	old := NewTable(1, map[Key]Distribution{
		{"s", "*", "w"}: mustDist(map[topology.ClusterID]float64{"w": 1}),
	})
	new := NewTable(2, map[Key]Distribution{
		{"s", "*", "w"}: mustDist(map[topology.ClusterID]float64{"w": 0.7, "e": 0.3}),
	})
	ds := Diff(old, new)
	if len(ds) != 1 {
		t.Fatalf("Diff = %d deltas, want 1", len(ds))
	}
	d := ds[0]
	if math.Abs(d.Moves["w"]+0.3) > 1e-12 || math.Abs(d.Moves["e"]-0.3) > 1e-12 {
		t.Errorf("Moves = %v", d.Moves)
	}
	if math.Abs(d.TotalMove()-0.3) > 1e-12 {
		t.Errorf("TotalMove = %v, want 0.3", d.TotalMove())
	}
	// Identical tables produce no deltas.
	if ds := Diff(new, new); len(ds) != 0 {
		t.Errorf("self-diff = %v", ds)
	}
}

func TestDiffKeyOnlyInOldComparesAgainstLocal(t *testing.T) {
	old := NewTable(1, map[Key]Distribution{
		{"s", "*", "w"}: mustDist(map[topology.ClusterID]float64{"w": 0.5, "e": 0.5}),
	})
	empty := EmptyTable()
	ds := Diff(old, empty)
	if len(ds) != 1 {
		t.Fatalf("Diff = %d deltas, want 1", len(ds))
	}
	if math.Abs(ds[0].Moves["w"]-0.5) > 1e-12 {
		t.Errorf("Moves = %v, want w:+0.5", ds[0].Moves)
	}
}

func TestStepBoundsMovement(t *testing.T) {
	cur := NewTable(1, map[Key]Distribution{
		{"s", "*", "w"}: mustDist(map[topology.ClusterID]float64{"w": 1}),
	})
	target := NewTable(2, map[Key]Distribution{
		{"s", "*", "w"}: mustDist(map[topology.ClusterID]float64{"w": 0.2, "e": 0.8}),
	})
	stepped := Step(cur, target, 0.1)
	d := stepped.Lookup("s", "*", "w")
	// Total desired move is 0.8; capped at 0.1.
	if w := d.Weight("e"); math.Abs(w-0.1) > 1e-9 {
		t.Errorf("east weight after step = %v, want 0.1", w)
	}
	if w := d.Weight("w"); math.Abs(w-0.9) > 1e-9 {
		t.Errorf("west weight after step = %v, want 0.9", w)
	}
	if stepped.Version != 2 {
		t.Errorf("Version = %d, want target's 2", stepped.Version)
	}
}

func TestStepReachesTargetEventually(t *testing.T) {
	cur := NewTable(1, map[Key]Distribution{
		{"s", "*", "w"}: mustDist(map[topology.ClusterID]float64{"w": 1}),
	})
	target := NewTable(2, map[Key]Distribution{
		{"s", "*", "w"}: mustDist(map[topology.ClusterID]float64{"w": 0.5, "e": 0.5}),
	})
	for i := 0; i < 10; i++ {
		cur = Step(cur, target, 0.1)
	}
	d := cur.Lookup("s", "*", "w")
	if math.Abs(d.Weight("e")-0.5) > 1e-9 {
		t.Errorf("after 10 steps of 0.1, east = %v, want 0.5", d.Weight("e"))
	}
}

func TestStepFullWhenMaxStepOutOfRange(t *testing.T) {
	cur := EmptyTable()
	target := NewTable(5, map[Key]Distribution{
		{"s", "*", "w"}: mustDist(map[topology.ClusterID]float64{"e": 1}),
	})
	if got := Step(cur, target, 0); got != target {
		t.Error("maxStep=0 should return target")
	}
	if got := Step(cur, target, 1.5); got != target {
		t.Error("maxStep>1 should return target")
	}
}

func TestStepSmallMoveAppliesFully(t *testing.T) {
	cur := NewTable(1, map[Key]Distribution{
		{"s", "*", "w"}: mustDist(map[topology.ClusterID]float64{"w": 0.95, "e": 0.05}),
	})
	target := NewTable(2, map[Key]Distribution{
		{"s", "*", "w"}: mustDist(map[topology.ClusterID]float64{"w": 0.9, "e": 0.1}),
	})
	stepped := Step(cur, target, 0.2)
	if w := stepped.Lookup("s", "*", "w").Weight("e"); math.Abs(w-0.1) > 1e-9 {
		t.Errorf("small move not applied fully: east = %v", w)
	}
}

func TestStepDistributionsStayNormalizedProperty(t *testing.T) {
	f := func(w1, w2, s uint8) bool {
		// Random current and target two-cluster splits.
		a := float64(w1%101) / 100
		b := float64(w2%101) / 100
		maxStep := float64(s%99+1) / 100
		cur := NewTable(1, map[Key]Distribution{
			{"s", "*", "w"}: mustDist(map[topology.ClusterID]float64{"w": a + 1e-9, "e": 1 - a + 1e-9}),
		})
		target := NewTable(2, map[Key]Distribution{
			{"s", "*", "w"}: mustDist(map[topology.ClusterID]float64{"w": b + 1e-9, "e": 1 - b + 1e-9}),
		})
		d := Step(cur, target, maxStep).Lookup("s", "*", "w")
		var sum float64
		for _, w := range d.All() {
			sum += w
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTableString(t *testing.T) {
	tab := NewTable(3, map[Key]Distribution{
		{"svc", "H", "west"}: mustDist(map[topology.ClusterID]float64{"west": 0.6, "east": 0.4}),
	})
	s := tab.String()
	if !strings.Contains(s, "v3") || !strings.Contains(s, "svc[H]@west") {
		t.Errorf("String = %q", s)
	}
}

func TestPickNeverSelectsZeroWeightProperty(t *testing.T) {
	// Property: Pick(u) only returns clusters with positive weight, for
	// any weights and any u in [0,1).
	f := func(w1, w2, w3 uint8, u16 uint16) bool {
		weights := map[topology.ClusterID]float64{
			"a": float64(w1 % 16), "b": float64(w2 % 16), "c": float64(w3 % 16),
		}
		var total float64
		for _, w := range weights {
			total += w
		}
		if almostEqual(total, 0) {
			return true // invalid distribution, constructor rejects it
		}
		d, err := NewDistribution(weights)
		if err != nil {
			return false
		}
		u := float64(u16) / 65536.0
		got := d.Pick(u)
		return weights[got] > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDiffTotalMoveSymmetryProperty(t *testing.T) {
	// Property: Diff(a,b) and Diff(b,a) report the same total movement.
	f := func(w1, w2 uint8) bool {
		a := float64(w1%100+1) / 101
		b := float64(w2%100+1) / 101
		ta := NewTable(1, map[Key]Distribution{
			{"s", "*", "w"}: mustDist(map[topology.ClusterID]float64{"w": a, "e": 1 - a}),
		})
		tb := NewTable(2, map[Key]Distribution{
			{"s", "*", "w"}: mustDist(map[topology.ClusterID]float64{"w": b, "e": 1 - b}),
		})
		fwd, rev := Diff(ta, tb), Diff(tb, ta)
		var mf, mr float64
		for _, d := range fwd {
			mf += d.TotalMove()
		}
		for _, d := range rev {
			mr += d.TotalMove()
		}
		return math.Abs(mf-mr) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
