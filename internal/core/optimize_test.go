package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// chainProblem builds the two-cluster linear-chain scenario. Each chain
// service pool has 8 servers at 10ms -> 800 std-RPS capacity, 760 at the
// 95% cap.
func chainProblem(rtt time.Duration, westRPS, eastRPS float64, cfg Config) *Problem {
	top := topology.TwoClusters(rtt)
	app := appgraph.LinearChain(appgraph.ChainOptions{
		Services:        3,
		MeanServiceTime: 10 * time.Millisecond,
		Pool:            appgraph.ReplicaPool{Replicas: 2, Concurrency: 4},
		Clusters:        []topology.ClusterID{topology.West, topology.East},
	})
	demand := Demand{"default": {topology.West: westRPS, topology.East: eastRPS}}
	return &Problem{
		Top:      top,
		App:      app,
		Demand:   demand,
		Profiles: DefaultProfiles(app, top, demand),
		Config:   cfg,
	}
}

func TestOptimizeKeepsLightLoadLocal(t *testing.T) {
	p := chainProblem(40*time.Millisecond, 200, 100, Config{})
	plan, err := p.Optimize(1)
	if err != nil {
		t.Fatal(err)
	}
	// Light load: no reason to pay 40ms RTT; everything stays local.
	for _, k := range plan.Table.Keys() {
		d, _ := plan.Table.Get(k)
		if w := d.Weight(k.Cluster); math.Abs(w-1) > 1e-6 {
			t.Errorf("rule %v routes %v local, want 1.0", k, w)
		}
	}
	if plan.EgressBytesPerSecond > 1e-6 {
		t.Errorf("egress = %v bytes/s, want 0", plan.EgressBytesPerSecond)
	}
}

func TestOptimizeOffloadsOverload(t *testing.T) {
	// West demand 900 > 760 west cap: at least 140 RPS must go east.
	p := chainProblem(40*time.Millisecond, 900, 100, Config{})
	plan, err := p.Optimize(1)
	if err != nil {
		t.Fatal(err)
	}
	// svc-1 receives all gateway output; check its rule from west.
	d := plan.Table.Lookup("svc-1", "default", topology.West)
	east := d.Weight(topology.East)
	if east <= 0 {
		t.Fatalf("west overloaded but nothing offloaded: %v", d)
	}
	wantMin := (900.0 - 760.0) / 900.0
	if east < wantMin-1e-6 {
		t.Errorf("offload fraction %v below feasibility minimum %v", east, wantMin)
	}
	// And not everything should leave: east capacity wouldn't fit it all,
	// and local serving is cheaper below the cap.
	if east > 0.5 {
		t.Errorf("offload fraction %v implausibly high", east)
	}
}

func TestOffloadGrowsAsRTTShrinks(t *testing.T) {
	// With cheap network, offloading earlier (more) is optimal; with an
	// expensive network SLATE keeps more local (paper Fig. 4).
	var fracs []float64
	for _, rtt := range []time.Duration{5 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond} {
		p := chainProblem(rtt, 700, 100, Config{})
		plan, err := p.Optimize(1)
		if err != nil {
			t.Fatalf("rtt %v: %v", rtt, err)
		}
		d := plan.Table.Lookup("svc-1", "default", topology.West)
		fracs = append(fracs, d.Weight(topology.East))
	}
	for i := 1; i < len(fracs); i++ {
		if fracs[i] > fracs[i-1]+1e-9 {
			t.Errorf("offload fraction should not grow with RTT: %v", fracs)
		}
	}
	if fracs[0] <= fracs[len(fracs)-1] && almostEqual(fracs[0], 0) {
		t.Logf("note: no offload at any RTT: %v", fracs)
	}
}

func TestOptimizePartialReplicationForcesRemote(t *testing.T) {
	top := topology.TwoClusters(40 * time.Millisecond)
	app := appgraph.AnomalyDetection(appgraph.AnomalyOptions{})
	demand := Demand{"detect": {topology.West: 100, topology.East: 50}}
	p := &Problem{Top: top, App: app, Demand: demand,
		Profiles: DefaultProfiles(app, top, demand), Config: Config{}}
	plan, err := p.Optimize(1)
	if err != nil {
		t.Fatal(err)
	}
	// DB is only in east: every DB call from west must go east.
	d := plan.Table.Lookup(string(appgraph.AnomalyDB), "detect", topology.West)
	if w := d.Weight(topology.East); math.Abs(w-1) > 1e-6 {
		t.Errorf("DB calls from west route %v east, want 1.0", w)
	}
}

func TestOptimizeCostWeightMovesCutUpstream(t *testing.T) {
	// Latency-only: with a 40ms RTT and light load, MP stays west and
	// only the (forced) MP->DB hop crosses, carrying the 1MB response.
	// With a dominant cost weight, SLATE moves the cut to FR->MP so the
	// big DB->MP response stays within east (paper §4.3, 11.6x egress).
	top := topology.TwoClusters(40 * time.Millisecond)
	app := appgraph.AnomalyDetection(appgraph.AnomalyOptions{})
	demand := Demand{"detect": {topology.West: 100, topology.East: 50}}

	latOnly := &Problem{Top: top, App: app, Demand: demand,
		Profiles: DefaultProfiles(app, top, demand), Config: Config{LatencyWeight: 1}}
	planLat, err := latOnly.Optimize(1)
	if err != nil {
		t.Fatal(err)
	}

	costHeavy := &Problem{Top: top, App: app, Demand: demand,
		Profiles: DefaultProfiles(app, top, demand),
		Config:   Config{LatencyWeight: 1, CostWeight: 1e7}}
	planCost, err := costHeavy.Optimize(2)
	if err != nil {
		t.Fatal(err)
	}

	if planCost.EgressBytesPerSecond >= planLat.EgressBytesPerSecond {
		t.Errorf("cost-aware egress %v >= latency-only egress %v",
			planCost.EgressBytesPerSecond, planLat.EgressBytesPerSecond)
	}
	ratio := planLat.EgressBytesPerSecond / planCost.EgressBytesPerSecond
	if ratio < 5 {
		t.Errorf("egress reduction ratio = %.1fx, want >= 5x (paper reports 11.6x)", ratio)
	}
	// The cut moved: MP calls from west now route east.
	d := planCost.Table.Lookup(string(appgraph.AnomalyMP), "detect", topology.West)
	if w := d.Weight(topology.East); w < 0.99 {
		t.Errorf("cost-aware plan routes MP %v east, want ~1.0", w)
	}
}

func TestOptimizeTwoClassOffloadsHeavyFirst(t *testing.T) {
	top := topology.TwoClusters(30 * time.Millisecond)
	app := appgraph.TwoClassApp(appgraph.TwoClassOptions{
		LightTime: 2 * time.Millisecond,
		HeavyTime: 20 * time.Millisecond,
		Pool:      appgraph.ReplicaPool{Replicas: 2, Concurrency: 4},
	})
	// Worker capacity west: 8 servers; ref svc time weighted toward H.
	// L 300 rps * 2ms = 0.6 busy servers; H 300 rps * 20ms = 6 busy.
	// Total 6.6 > 0.95*8? 7.6 cap. Tight enough with east demand too.
	demand := Demand{
		"L": {topology.West: 400, topology.East: 50},
		"H": {topology.West: 330, topology.East: 50},
	}
	p := &Problem{Top: top, App: app, Demand: demand,
		Profiles: DefaultProfiles(app, top, demand), Config: Config{}}
	plan, err := p.Optimize(1)
	if err != nil {
		t.Fatal(err)
	}
	dl := plan.Table.Lookup(string(appgraph.TwoClassWorker), "L", topology.West)
	dh := plan.Table.Lookup(string(appgraph.TwoClassWorker), "H", topology.West)
	offL, offH := dl.Weight(topology.East), dh.Weight(topology.East)
	if offH <= offL {
		t.Errorf("SLATE should offload the heavy class preferentially: L=%v H=%v", offL, offH)
	}
}

func TestOptimizeInfeasibleDemand(t *testing.T) {
	// Total capacity both clusters: 2*760 std RPS; demand 2000.
	p := chainProblem(10*time.Millisecond, 1500, 500, Config{})
	_, err := p.Optimize(1)
	if err == nil || !strings.Contains(err.Error(), "infeasible") {
		t.Fatalf("err = %v, want infeasible demand error", err)
	}
}

func TestOptimizeDemandInUnplacedFrontend(t *testing.T) {
	top := topology.GCPTopology()
	app := appgraph.LinearChain(appgraph.ChainOptions{
		Clusters: []topology.ClusterID{topology.OR, topology.UT},
	})
	demand := Demand{"default": {topology.SC: 100}}
	p := &Problem{Top: top, App: app, Demand: demand,
		Profiles: DefaultProfiles(app, top, demand), Config: Config{}}
	_, err := p.Optimize(1)
	if err == nil || !strings.Contains(err.Error(), "not placed") {
		t.Fatalf("err = %v, want frontend-not-placed error", err)
	}
}

func TestOptimizeNegativeDemand(t *testing.T) {
	p := chainProblem(10*time.Millisecond, 100, 100, Config{})
	p.Demand["default"][topology.West] = -5
	if _, err := p.Optimize(1); err == nil {
		t.Fatal("negative demand should error")
	}
}

func TestOptimizeMissingProfile(t *testing.T) {
	p := chainProblem(10*time.Millisecond, 100, 100, Config{})
	delete(p.Profiles["svc-2"], topology.East)
	if _, err := p.Optimize(1); err == nil || !strings.Contains(err.Error(), "no latency profile") {
		t.Fatalf("err = %v, want missing profile error", err)
	}
}

func TestOptimizePlanLoadsConserveDemand(t *testing.T) {
	p := chainProblem(40*time.Millisecond, 500, 200, Config{})
	plan, err := p.Optimize(1)
	if err != nil {
		t.Fatal(err)
	}
	// Every chain service receives exactly the total demand (700 RPS),
	// split across the two pools. Std scale for chain services is ~1.
	for _, svc := range []string{"svc-1", "svc-2", "svc-3"} {
		var sum float64
		for _, l := range plan.Loads {
			if string(l.Key.Service) == svc {
				sum += l.StdRPS
			}
		}
		if math.Abs(sum-700) > 1 {
			t.Errorf("%s total load = %v, want 700", svc, sum)
		}
	}
	// Predicted latency exists and is sane (>= sum of service times).
	lat := plan.PredictedMeanLatency["default"]
	if lat < 30*time.Millisecond || lat > 500*time.Millisecond {
		t.Errorf("predicted latency = %v, want in [30ms, 500ms]", lat)
	}
}

func TestOptimizeUtilizationRespectsCap(t *testing.T) {
	p := chainProblem(20*time.Millisecond, 740, 740, Config{})
	plan, err := p.Optimize(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range plan.Loads {
		if l.Utilization > 0.95+1e-9 {
			t.Errorf("pool %v utilization %v exceeds 95%% cap", l.Key, l.Utilization)
		}
	}
}

func TestOptimizeRuleWeightsNormalized(t *testing.T) {
	p := chainProblem(15*time.Millisecond, 900, 100, Config{})
	plan, err := p.Optimize(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Table.Validate(p.Top); err != nil {
		t.Errorf("produced table invalid: %v", err)
	}
}

func TestDemandTotal(t *testing.T) {
	d := Demand{"c": {topology.West: 2, topology.East: 3}}
	if got := d.Total("c"); !almostEqual(got, 5) {
		t.Errorf("Total = %v, want 5", got)
	}
	if got := d.Total("missing"); !almostEqual(got, 0) {
		t.Errorf("Total(missing) = %v, want 0", got)
	}
}

func TestDefaultProfilesWeighting(t *testing.T) {
	top := topology.TwoClusters(time.Millisecond)
	app := appgraph.TwoClassApp(appgraph.TwoClassOptions{
		LightTime: 2 * time.Millisecond,
		HeavyTime: 20 * time.Millisecond,
	})
	// All demand on H: worker reference time should be pulled toward 20ms.
	profs := DefaultProfiles(app, top, Demand{"H": {topology.West: 100}})
	pp, ok := profs.Get(appgraph.TwoClassWorker, topology.West)
	if !ok {
		t.Fatal("missing worker profile")
	}
	if pp.RefServiceTime < 15*time.Millisecond {
		t.Errorf("ref service time = %v, want pulled toward 20ms", pp.RefServiceTime)
	}
	// Balanced demand: between the two.
	profs = DefaultProfiles(app, top, Demand{
		"H": {topology.West: 100}, "L": {topology.West: 100},
	})
	pp, _ = profs.Get(appgraph.TwoClassWorker, topology.West)
	if pp.RefServiceTime < 5*time.Millisecond || pp.RefServiceTime > 15*time.Millisecond {
		t.Errorf("balanced ref service time = %v, want ~11ms", pp.RefServiceTime)
	}
}

func TestRoutingTableLookupChainsToLocalFallback(t *testing.T) {
	p := chainProblem(40*time.Millisecond, 100, 100, Config{})
	plan, err := p.Optimize(1)
	if err != nil {
		t.Fatal(err)
	}
	// A class the optimizer never saw falls back to local.
	d := plan.Table.Lookup("svc-1", "ghost-class", topology.West)
	if !almostEqual(d.Weight(topology.West), 1) {
		// There may be an exact "default" rule but no wildcard; ghost
		// classes must still route somewhere.
		if d.IsZero() {
			t.Error("ghost class lookup returned zero distribution")
		}
	}
	_ = routing.AnyClass
}

// propagateLoads independently recomputes per-pool raw loads by pushing
// demand through the plan's routing rules down the call trees — used to
// cross-check the optimizer's reported Loads.
func propagateLoads(app *appgraph.App, top *topology.Topology, tab *routing.Table, demand Demand) map[PoolKey]float64 {
	raw := map[PoolKey]map[string]float64{} // pool -> class -> rps
	add := func(svc appgraph.ServiceID, cl topology.ClusterID, class string, rps float64) {
		key := PoolKey{Service: svc, Cluster: cl}
		if raw[key] == nil {
			raw[key] = map[string]float64{}
		}
		raw[key][class] += rps
	}
	type placed map[topology.ClusterID]float64
	for _, cl := range app.Classes {
		var walk func(n *appgraph.CallNode, exec placed)
		walk = func(n *appgraph.CallNode, exec placed) {
			for c, rps := range exec {
				add(n.Service, c, cl.Name, rps)
			}
			for _, ch := range n.Children {
				next := placed{}
				for src, rps := range exec {
					d := tab.Lookup(string(ch.Service), cl.Name, src)
					for dst, w := range d.All() {
						next[dst] += rps * float64(ch.Count) * w
					}
				}
				walk(ch, next)
			}
		}
		root := placed{}
		for c, rps := range demand[cl.Name] {
			if rps > 0 {
				root[c] += rps
			}
		}
		walk(cl.Root, root)
	}
	// Convert raw class loads to standard loads using per-class service
	// time over the pool's reference time.
	profs := DefaultProfiles(app, top, demand)
	classTime := map[string]map[appgraph.ServiceID]time.Duration{}
	for _, cl := range app.Classes {
		classTime[cl.Name] = map[appgraph.ServiceID]time.Duration{}
		cl.Root.Walk(func(n *appgraph.CallNode) {
			classTime[cl.Name][n.Service] = n.Work.MeanServiceTime
		})
	}
	std := map[PoolKey]float64{}
	for key, per := range raw {
		pp, _ := profs.Get(key.Service, key.Cluster)
		for class, rps := range per {
			scale := 1.0
			if pp.RefServiceTime > 0 {
				scale = classTime[class][key.Service].Seconds() / pp.RefServiceTime.Seconds()
			}
			std[key] += rps * scale
		}
	}
	return std
}

func TestOptimizeLoadsMatchIndependentPropagation(t *testing.T) {
	// Property: the optimizer's reported pool loads must equal an
	// independent propagation of demand through its own routing rules,
	// across several scenarios.
	scenarios := []*Problem{
		chainProblem(40*time.Millisecond, 900, 100, Config{}),
		chainProblem(5*time.Millisecond, 700, 300, Config{}),
	}
	{
		top := topology.TwoClusters(30 * time.Millisecond)
		app := appgraph.TwoClassApp(appgraph.TwoClassOptions{
			LightTime: 2 * time.Millisecond,
			HeavyTime: 20 * time.Millisecond,
			Pool:      appgraph.ReplicaPool{Replicas: 2, Concurrency: 4},
		})
		demand := Demand{
			"L": {topology.West: 400, topology.East: 50},
			"H": {topology.West: 330, topology.East: 50},
		}
		scenarios = append(scenarios, &Problem{Top: top, App: app, Demand: demand,
			Profiles: DefaultProfiles(app, top, demand)})
	}
	{
		top := topology.GCPTopology()
		app := appgraph.AnomalyDetection(appgraph.AnomalyOptions{
			Clusters:   top.ClusterIDs(),
			DBClusters: []topology.ClusterID{topology.IOW, topology.SC},
		})
		demand := Demand{"detect": {topology.OR: 300, topology.UT: 100, topology.IOW: 50, topology.SC: 50}}
		scenarios = append(scenarios, &Problem{Top: top, App: app, Demand: demand,
			Profiles: DefaultProfiles(app, top, demand)})
	}
	for i, p := range scenarios {
		plan, err := p.Optimize(1)
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		want := propagateLoads(p.App, p.Top, plan.Table, p.Demand)
		got := map[PoolKey]float64{}
		for _, l := range plan.Loads {
			got[l.Key] = l.StdRPS
		}
		for key, w := range want {
			g := got[key]
			if math.Abs(g-w) > 1e-6*(1+w) {
				t.Errorf("scenario %d: pool %v load %v, independent propagation %v", i, key, g, w)
			}
		}
		for key, g := range got {
			if _, ok := want[key]; !ok && g > 1e-6 {
				t.Errorf("scenario %d: pool %v has load %v but propagation found none", i, key, g)
			}
		}
	}
}

// TestSortLoadsOrdersByServiceThenCluster: merge collects pool loads
// from a map, so sortLoads alone fixes their order, whatever order they
// arrive in: by service, then cluster.
func TestSortLoadsOrdersByServiceThenCluster(t *testing.T) {
	want := []PoolKey{
		{"a", "east"}, {"a", "west"},
		{"b", "east"}, {"b", "west"},
		{"c", "west"},
	}
	orders := [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {1, 0, 3, 2, 4}, {4, 0, 3, 1, 2}, {2, 4, 1, 3, 0}}
	for _, order := range orders {
		loads := make([]PoolLoad, len(order))
		for i, j := range order {
			loads[i] = PoolLoad{Key: want[j]}
		}
		sortLoads(loads)
		for i, l := range loads {
			if l.Key != want[i] {
				t.Fatalf("from order %v: position %d is %v, want %v", order, i, l.Key, want[i])
			}
		}
	}
}
