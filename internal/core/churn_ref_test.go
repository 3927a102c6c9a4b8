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
// tick's shards (cumulative counters; repairs are among the warm).
type churnTick struct {
	table                                                  uint64
	warm, repairs, cold, searchWins, simplexWins, abandons uint64
}

// churnRecorded is the churn stream as the controller published it at
// 4f7cfa2, on the dense simplex tableau, the map-based flow lookup and a
// linearization per pool per solve — re-recorded twice since, each time
// for a change that reaches the same vertices by other pivots: when a
// warm basis the demand left infeasible began to be repaired by dual
// simplex pivots instead of re-solved cold (every weight within 5e-16 of
// the old recording's; the repairs are the ticks' former cold
// fallbacks), and when a shard whose demand alone moved began to resume
// from the tableau its last warm solve kept instead of installing its
// basis (from the third tick on; every weight within 8.9e-16, the same
// rules over the same clusters). Both times every counter stayed the
// same. Nothing else may change a bit of it: the
// sparse tableau makes the dense one's pivots, and the formulation and
// the race see the same segments. A change that means to move a plan
// re-records it from the failure message.
var churnRecorded = []churnTick{
	{0x3ba41f26f0e5c878, 0, 0, 8, 0, 0, 0},
	{0x557401eba222c530, 4, 1, 8, 4, 4, 4},
	{0x58316f4e66703631, 7, 1, 8, 9, 7, 7},
	{0xa5402e208826ab3a, 11, 1, 8, 13, 11, 11},
	{0xbe2662ad0646350b, 14, 1, 8, 18, 14, 14},
	{0x132afb220a2c3b3f, 18, 2, 8, 22, 18, 18},
	{0x464152f924aaa3c7, 21, 2, 8, 27, 21, 21},
	{0x31d895d27ae59955, 25, 3, 8, 31, 25, 25},
	{0xccd6018f69677c9c, 28, 3, 8, 36, 28, 28},
	{0xeaabbe235f4a7bd1, 32, 4, 8, 40, 32, 32},
	{0x7448aa5bbfa715f3, 35, 4, 8, 45, 35, 35},
	{0xf3f2f99ce7880866, 39, 4, 8, 49, 39, 39},
}

// tableHash folds every rule of a table — key, clusters and weight bits,
// in key order — into one number.
func tableHash(tab *routing.Table) uint64 {
	h := fnv.New64a()
	for _, k := range tab.Keys() {
		d, _ := tab.Get(k)
		fmt.Fprintf(h, "%s|", k)
		for c, w := range d.All() {
			fmt.Fprintf(h, "%s=%016x,", c, math.Float64bits(w))
		}
	}
	return h.Sum64()
}

// TestKeptTableauMatchesInstall is the licence for resuming a shard's
// solve from the tableau it kept: on every tick of a long churn stream —
// the one TestChurnMatchesRecorded records, run for 120 ticks, with the
// race armed and without — the controller publishes, within 1e-9 per
// weight, the table of a controller whose every warm solve installs its
// basis afresh, and serves its shards the same way but for the kept
// solves. The kept tableau carries the roundoff of every tick it lived
// through, so the stream is long; the weights part by a few ulp.
func TestKeptTableauMatchesInstall(t *testing.T) {
	spec := genSpec(16, 32, 8)
	spec.TotalRPS *= 2
	g, err := scenario.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, search := range []bool{false, true} {
		cfg := core.ControllerConfig{DemandSmoothing: 1, Decompose: true, Search: search, SkipEpsilon: 0.02}
		tee, err := core.NewKeptTee(g.Top, g.App, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(29)
		for tick := 0; tick < 120; tick++ {
			tee.Tick(genWindow(g, func(class int) float64 {
				f := 1 + 0.01*(2*rng.Float64()-1)
				if (class+tick)%2 == 0 {
					return f * 1.15
				}
				return f * 0.9
			}), time.Second)
		}
		for _, m := range tee.Mismatches {
			t.Errorf("search %v: %s", search, m)
		}
		st := tee.Live.OptimizerStats()
		t.Logf("search %v: %d ticks, %d of %d warm solves resumed, %d repaired, largest weight difference %.3g",
			search, tee.Ticks, tee.Kept, st.WarmSolves, st.DualRepairs, tee.MaxDiff)
		if tee.Kept == 0 || uint64(tee.Kept) != st.KeptSolves || st.DualRepairs == 0 {
			t.Fatalf("search %v: %+v; the stream must resume shards, and repair some", search, st)
		}
	}
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
		got = append(got, churnTick{tableHash(tab), st.WarmSolves, st.DualRepairs, st.ColdSolves, st.SearchSolves, st.SimplexWins, st.GapAbandoned})
	}
	last := got[len(got)-1]
	if last.warm == 0 || last.repairs == 0 || last.searchWins == 0 || last.simplexWins == 0 {
		t.Fatalf("the stream ended at %+v: it must take the warm, dual-repair, search-won and simplex-won paths", last)
	}
	if !slices.Equal(got, churnRecorded) {
		var b strings.Builder
		for _, c := range got {
			fmt.Fprintf(&b, "\t{%#x, %d, %d, %d, %d, %d, %d},\n", c.table, c.warm, c.repairs, c.cold, c.searchWins, c.simplexWins, c.abandons)
		}
		i := 0
		for i < len(got) && i < len(churnRecorded) && got[i] == churnRecorded[i] {
			i++
		}
		t.Fatalf("the stream departs from the recording at tick %d of %d (%d recorded); as driven:\n%s", i, len(got), len(churnRecorded), b.String())
	}
}
