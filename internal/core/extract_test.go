package core_test

import (
	"slices"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/forecast"
	"github.com/servicelayernetworking/slate/internal/scenario"
	"github.com/servicelayernetworking/slate/internal/sim"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// churnDemand is one tick's demand of the churn stream
// TestChurnMatchesRecorded drives: ±1 % jitter on every stream, and
// alternate classes at ×1.15 / ×0.9 with the parity flipping every tick.
func churnDemand(g *scenario.Generated, rng *sim.RNG, tick int) core.Demand {
	d := core.Demand{}
	core.FoldDemand(d, g.App, genWindow(g, func(class int) float64 {
		f := 1 + 0.01*(2*rng.Float64()-1)
		if (class+tick)%2 == 0 {
			return f * 1.15
		}
		return f * 0.9
	}), 1, map[forecast.Key]struct{}{})
	return d
}

// churnDeployment is TestChurnMatchesRecorded's generated deployment,
// loaded to where a few rules split across clusters on every tick.
func churnDeployment(t *testing.T) *scenario.Generated {
	t.Helper()
	spec := genSpec(16, 32, 8)
	spec.TotalRPS *= 2
	g, err := scenario.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestExtractMatchesMaps holds the plans read off the compiled rule
// layout to the map-based extract and merge they replace, bit for bit —
// rules, weights, pool loads, predicted latencies, objective and egress —
// on the same LP solutions: a churn stream with the race armed (plans the
// search won among them), the same stream under a robust config, and the
// four Fig. 6 problems.
func TestExtractMatchesMaps(t *testing.T) {
	check := func(name string, tee *core.ExtractTee) {
		t.Helper()
		for _, m := range tee.Mismatches {
			t.Errorf("%s: %s", name, m)
		}
		t.Logf("%s: %d shard solutions compared, %d won by the search", name, tee.Solves, tee.SearchWins)
	}

	g := churnDeployment(t)
	for _, c := range []struct {
		name   string
		cfg    core.Config
		search bool
		ticks  int
	}{
		{"churn", core.Config{}, true, 12},
		{"robust churn", core.Config{DemandMargin: 0.25}, false, 4},
	} {
		tee := core.NewExtractTee(g.Top, g.App, c.cfg, c.search)
		rng := sim.NewRNG(23)
		for tick := 0; tick < c.ticks; tick++ {
			d := churnDemand(g, rng, tick)
			if err := tee.Solve(d, core.DefaultProfiles(g.App, g.Top, d), uint64(tick+1)); err != nil {
				t.Fatalf("%s tick %d: %v", c.name, tick, err)
			}
		}
		if c.search && tee.SearchWins == 0 {
			t.Errorf("%s: the search won no solve; the stream must compare its plans too", c.name)
		}
		check(c.name, tee)
	}

	chain := func(clusters ...topology.ClusterID) *appgraph.App {
		return appgraph.LinearChain(appgraph.ChainOptions{
			Services:        3,
			MeanServiceTime: 10 * time.Millisecond,
			Pool:            appgraph.ReplicaPool{Replicas: 2, Concurrency: 4},
			Clusters:        clusters,
		})
	}
	gcp := topology.GCPTopology()
	anomaly := appgraph.AnomalyDetection(appgraph.AnomalyOptions{
		Clusters:    []topology.ClusterID{topology.West, topology.East},
		DBClusters:  []topology.ClusterID{topology.East},
		ProcessTime: 8 * time.Millisecond,
		QueryTime:   4 * time.Millisecond,
		Pool:        appgraph.ReplicaPool{Replicas: 3, Concurrency: 4},
	})
	anomaly.Services[appgraph.AnomalyMP].Placement[topology.West] = appgraph.ReplicaPool{Replicas: 1, Concurrency: 4}
	for _, p := range []struct {
		name   string
		top    *topology.Topology
		app    *appgraph.App
		demand core.Demand
		cfg    core.Config
	}{
		{"fig6a", topology.TwoClusters(40 * time.Millisecond), chain(topology.West, topology.East),
			core.Demand{"default": {topology.West: 900, topology.East: 100}}, core.Config{}},
		{"fig6b", gcp, chain(gcp.ClusterIDs()...),
			core.Demand{"default": {topology.OR: 1090, topology.UT: 100, topology.IOW: 1090, topology.SC: 100}}, core.Config{}},
		{"fig6c", topology.TwoClusters(40 * time.Millisecond), anomaly,
			core.Demand{"detect": {topology.West: 600, topology.East: 100}}, core.Config{LatencyWeight: 1, CostWeight: 1e4}},
		{"fig6d", topology.TwoClusters(30 * time.Millisecond), appgraph.TwoClassApp(appgraph.TwoClassOptions{
			LightTime: 2 * time.Millisecond,
			HeavyTime: 20 * time.Millisecond,
			Pool:      appgraph.ReplicaPool{Replicas: 2, Concurrency: 4},
		}), core.Demand{"L": {topology.West: 400, topology.East: 50}, "H": {topology.West: 330, topology.East: 50}}, core.Config{}},
	} {
		tee := core.NewExtractTee(p.top, p.app, p.cfg, false)
		if err := tee.Solve(p.demand, core.DefaultProfiles(p.app, p.top, p.demand), 1); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		check(p.name, tee)
	}
}

// TestExtractAllocs pins what reading a plan off a warm churn shard's
// solution costs in heap allocations: the plan, its latency map and
// loads, the table and its rule map (NewTable's copy included), one
// array of clusters and one of weights for all the rules, and the
// demand total's sort. The count is the same for every shard, whatever
// its rule count; Go's map allocates one step more from 9 entries on,
// and every shard here holds more.
func TestExtractAllocs(t *testing.T) {
	spec := genSpec(24, 64, 8)
	spec.TotalRPS *= 4
	g, err := scenario.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	tee := core.NewExtractTee(g.Top, g.App, core.Config{}, true)
	rng := sim.NewRNG(23)
	for tick := 0; tick < 4; tick++ {
		d := churnDemand(g, rng, tick)
		if err := tee.Solve(d, core.DefaultProfiles(g.App, g.Top, d), uint64(tick+1)); err != nil {
			t.Fatal(err)
		}
	}
	d := churnDemand(g, rng, 4)
	rules, allocs, err := tee.ExtractAllocs(d, core.DefaultProfiles(g.App, g.Top, d), 5)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("rules per shard %v, allocations per extract %v", rules, allocs)
	if slices.Min(rules) <= 8 || slices.Min(rules) == slices.Max(rules) {
		t.Fatalf("shards hold %v rules; the pin needs more than 8 in each, and counts that differ", rules)
	}
	for i, n := range allocs {
		if n != 18 { //slate:nolint floatcmp -- AllocsPerRun returns an integer-valued count
			t.Errorf("shard %d: extracting %d rules allocates %v times, want 18", i, rules[i], n)
		}
	}
}
