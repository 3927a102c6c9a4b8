package core_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/scenario"
	"github.com/servicelayernetworking/slate/internal/sim"
)

// churnTick is what one tick of the churn stream published: a hash of
// every rule's weights, bit for bit, and how the optimizer served the
// tick's shards (cumulative counters).
type churnTick struct {
	table                                         uint64
	warm, cold, searchWins, simplexWins, abandons uint64
}

// churnRecorded is the churn stream as the controller published it at
// 4f7cfa2, on the dense simplex tableau, the map-based flow lookup and a
// linearization per pool per solve. Nothing since may change a bit of it:
// the sparse tableau makes the dense one's pivots, and the formulation
// and the race see the same segments. A change that means to move a plan
// re-records it from the failure message.
var churnRecorded = []churnTick{
	{0x3ba41f26f0e5c878, 0, 8, 0, 0, 0},
	{0x2e3720b5822cd05, 3, 9, 4, 4, 4},
	{0x812733a0648a1636, 6, 9, 9, 7, 7},
	{0xa7e34c05e4418ef6, 10, 9, 13, 11, 11},
	{0x7c2c012d6e8c19f6, 13, 9, 18, 14, 14},
	{0xd786708eca85d70e, 16, 10, 22, 18, 18},
	{0x68fe2cf92228cf28, 19, 10, 27, 21, 21},
	{0x4957ec2afa98a85, 22, 11, 31, 25, 25},
	{0x57c1f6e03064b226, 25, 11, 36, 28, 28},
	{0xf6f28983c4aa2a38, 28, 12, 40, 32, 32},
	{0x4a4352056cc3476d, 31, 12, 45, 35, 35},
	{0x3a84be7ef3098599, 35, 12, 49, 39, 39},
}

// tableHash folds every rule of a table — key, clusters and weight bits,
// in key order — into one number.
func tableHash(tab *routing.Table) uint64 {
	h := fnv.New64a()
	for _, k := range tab.Keys() {
		d, _ := tab.Get(k)
		fmt.Fprintf(h, "%s|", k)
		for _, c := range d.Clusters() {
			fmt.Fprintf(h, "%s=%016x,", c, math.Float64bits(d.Weight(c)))
		}
	}
	return h.Sum64()
}

// TestChurnMatchesRecorded drives the benchmark's ctrl-churn pattern —
// ±1 % jitter on every stream, alternate classes at ×1.15 / ×0.9 with the
// parity flipping every tick, so every shard re-solves — through the
// benchmark's controller configuration on a deployment a third its size,
// and holds every tick's table and solve counters to the recording.
func TestChurnMatchesRecorded(t *testing.T) {
	// Loaded to where a few rules split across clusters on every tick, so
	// no two ticks publish the same table.
	spec := genSpec(16, 32, 8)
	spec.TotalRPS *= 2
	g, err := scenario.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.ControllerConfig{DemandSmoothing: 1, Decompose: true, Search: true, SkipEpsilon: 0.02}
	ctrl, err := core.NewController(g.Top, g.App, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(23)
	var got []churnTick
	for tick := 0; tick < 12; tick++ {
		before := ctrl.OptimizerStats()
		tab, err := ctrl.Tick(genWindow(g, func(class int) float64 {
			f := 1 + 0.01*(2*rng.Float64()-1)
			if (class+tick)%2 == 0 {
				return f * 1.15
			}
			return f * 0.9
		}), time.Second)
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		st := ctrl.OptimizerStats()
		if st.SkippedSolves != before.SkippedSolves || st.SubSolves-before.SubSolves != st.Shards {
			t.Fatalf("tick %d solved %d of %d shards; churn must dirty every one", tick, st.SubSolves-before.SubSolves, st.Shards)
		}
		got = append(got, churnTick{tableHash(tab), st.WarmSolves, st.ColdSolves, st.SearchSolves, st.SimplexWins, st.GapAbandoned})
	}
	last := got[len(got)-1]
	if last.warm == 0 || last.cold <= ctrl.OptimizerStats().Shards || last.searchWins == 0 || last.simplexWins == 0 {
		t.Fatalf("the stream ended at %+v: it must take the warm, cold-fallback, search-won and simplex-won paths", last)
	}
	if !slices.Equal(got, churnRecorded) {
		var b strings.Builder
		for _, c := range got {
			fmt.Fprintf(&b, "\t{%#x, %d, %d, %d, %d, %d},\n", c.table, c.warm, c.cold, c.searchWins, c.simplexWins, c.abandons)
		}
		i := 0
		for i < len(got) && i < len(churnRecorded) && got[i] == churnRecorded[i] {
			i++
		}
		t.Fatalf("the stream departs from the recording at tick %d of %d (%d recorded); as driven:\n%s", i, len(got), len(churnRecorded), b.String())
	}
}
