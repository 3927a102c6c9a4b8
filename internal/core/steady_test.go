package core_test

// This file is in package core_test because the streams it drives come
// out of the simulator, which imports core. The reference
// implementations and the side-by-side harness (core.SteadyTee) are in
// steady_ref_test.go, inside the package.

import (
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/fault"
	"github.com/servicelayernetworking/slate/internal/forecast"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/scenario"
	"github.com/servicelayernetworking/slate/internal/sim"
	"github.com/servicelayernetworking/slate/internal/simrun"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
	"github.com/servicelayernetworking/slate/internal/workload"
)

// teePolicy lets the live controller of a SteadyTee drive a simulation
// while the reference controller shadows it on the same telemetry.
type teePolicy struct {
	tee *core.SteadyTee
	// failoverAt, when > 0, replaces both controllers before that tick by
	// ones restored from the live controller's snapshot.
	failoverAt int
	failover   func() error
}

func (p *teePolicy) Name() string                  { return "slate" }
func (p *teePolicy) Init() (*routing.Table, error) { return p.tee.Prime() }
func (p *teePolicy) Tick(stats []telemetry.WindowStats, window time.Duration) (*routing.Table, error) {
	if p.failoverAt > 0 && p.tee.Ticks+1 == p.failoverAt {
		if err := p.failover(); err != nil {
			return nil, err
		}
	}
	return p.tee.Tick(stats, window)
}

// demandAtStart reads each stream's scheduled rate at t=0, as the
// experiments do to prime their controllers.
func demandAtStart(specs []workload.Spec) core.Demand {
	d := core.Demand{}
	for _, spec := range specs {
		if rate := spec.RateAt(0); rate > 0 {
			if d[spec.Class] == nil {
				d[spec.Class] = map[topology.ClusterID]float64{}
			}
			d[spec.Class][spec.Cluster] += rate
		}
	}
	return d
}

func steadyStreams(class string, rates map[topology.ClusterID]float64, order ...topology.ClusterID) []workload.Spec {
	var out []workload.Spec
	for _, c := range order {
		out = append(out, workload.Steady(class, c, rates[c]))
	}
	return out
}

type steadyCase struct {
	name string
	scn  simrun.Scenario
	cfg  core.ControllerConfig
	// failoverAt > 0 restores both controllers from a snapshot before
	// that tick.
	failoverAt int
}

// steadyCases are the experiments' controller tick streams: the four
// Fig. 6 scenarios and the chaos fault schedule as the differential
// tests of internal/experiments run them (24 s, a tick every 2 s), with
// the figures' controller configurations, plus legs that move what the
// caches key on: profiles refit mid-stream (LearnProfiles), a
// snapshot/restore mid-stream, and the regret suite's four stress
// scenarios under its four controllers (reactive, robust with
// DemandMargin 0.25, predictive, both).
func steadyCases() []steadyCase {
	const dur, warm, period = 24 * time.Second, 4 * time.Second, 2 * time.Second
	chain := func(clusters ...topology.ClusterID) *appgraph.App {
		return appgraph.LinearChain(appgraph.ChainOptions{
			Services: 3, MeanServiceTime: 10 * time.Millisecond,
			Pool: appgraph.ReplicaPool{Replicas: 2, Concurrency: 4}, Clusters: clusters,
		})
	}
	two := topology.TwoClusters(40 * time.Millisecond)
	gcp := topology.GCPTopology()
	anomaly := appgraph.AnomalyDetection(appgraph.AnomalyOptions{
		Clusters:    []topology.ClusterID{topology.West, topology.East},
		DBClusters:  []topology.ClusterID{topology.East},
		ProcessTime: 8 * time.Millisecond, QueryTime: 4 * time.Millisecond,
		Pool: appgraph.ReplicaPool{Replicas: 3, Concurrency: 4},
	})
	anomaly.Services[appgraph.AnomalyMP].Placement[topology.West] = appgraph.ReplicaPool{Replicas: 1, Concurrency: 4}
	twoClass := appgraph.TwoClassApp(appgraph.TwoClassOptions{
		LightTime: 2 * time.Millisecond, HeavyTime: 20 * time.Millisecond,
		Pool: appgraph.ReplicaPool{Replicas: 2, Concurrency: 4},
	})
	sched := fault.NewSchedule()
	sched.Outage(fault.Global, 6*time.Second, 8*time.Second)
	sched.Partition(topology.West, topology.East, 8*time.Second, 5*time.Second)
	sched.Flap(fault.Global, 16*time.Second, 2, 1*time.Second, 3*time.Second)

	we := []topology.ClusterID{topology.East, topology.West}
	scn := func(name string, top *topology.Topology, app *appgraph.App, w []workload.Spec) simrun.Scenario {
		return simrun.Scenario{Name: name, Top: top, App: app, Workload: w,
			Duration: dur, Warmup: warm, Seed: 42, ControlPeriod: period}
	}
	fig6a := scn("fig6a", two, chain(topology.West, topology.East),
		steadyStreams("default", map[topology.ClusterID]float64{topology.West: 900, topology.East: 100}, we...))
	chaos := scn("chaos", two, chain(topology.West, topology.East),
		steadyStreams("default", map[topology.ClusterID]float64{topology.West: 700, topology.East: 100}, we...))
	chaos.Faults, chaos.RuleTTL = sched, 6*time.Second
	decomposed := core.ControllerConfig{Decompose: true}
	cases := []steadyCase{
		{name: "fig6a", scn: fig6a, cfg: decomposed},
		{name: "fig6b", cfg: decomposed, scn: scn("fig6b", gcp, chain(gcp.ClusterIDs()...),
			steadyStreams("default", map[topology.ClusterID]float64{
				topology.OR: 1090, topology.UT: 100, topology.IOW: 1090, topology.SC: 100,
			}, topology.IOW, topology.OR, topology.SC, topology.UT))},
		{name: "fig6c", scn: scn("fig6c", two, anomaly,
			steadyStreams("detect", map[topology.ClusterID]float64{topology.West: 600, topology.East: 100}, we...)),
			cfg: core.ControllerConfig{Optimizer: core.Config{LatencyWeight: 1, CostWeight: 1e4}, Decompose: true}},
		{name: "fig6d", cfg: decomposed, scn: scn("fig6d", topology.TwoClusters(30*time.Millisecond), twoClass, append(
			steadyStreams("L", map[topology.ClusterID]float64{topology.West: 400, topology.East: 50}, we...),
			steadyStreams("H", map[topology.ClusterID]float64{topology.West: 330, topology.East: 50}, we...)...))},
		{name: "chaos", scn: chaos, cfg: decomposed},
		{name: "fig6a/learn-profiles", scn: fig6a,
			cfg: core.ControllerConfig{Decompose: true, LearnProfiles: true, DemandSmoothing: 0.7}},
		// Profiles drift while the shard keeps skipping: the merged plan's
		// loads must be re-priced although no sub-plan changed.
		{name: "fig6a/learn-profiles/wide-skip", scn: fig6a,
			cfg: core.ControllerConfig{Decompose: true, LearnProfiles: true, SkipEpsilon: 0.5}},
		{name: "fig6a/max-step-guard", scn: fig6a,
			cfg: core.ControllerConfig{Decompose: true, MaxStep: 0.1, GuardRegression: true}},
		{name: "chaos/restore", scn: chaos, cfg: decomposed, failoverAt: 6},
	}
	hw := forecast.Config{Alpha: 0.5, Beta: 0.3, Gamma: 0.3, SeasonLength: 12}
	for _, s := range scenario.StressScenarios(42, 0.25) {
		for _, leg := range []struct {
			name string
			cfg  core.ControllerConfig
		}{
			{"reactive", core.ControllerConfig{DemandSmoothing: 0.7}},
			{"robust", core.ControllerConfig{DemandSmoothing: 0.7, Optimizer: core.Config{DemandMargin: 0.25}}},
			{"predictive", core.ControllerConfig{DemandSmoothing: 0.7, Forecast: hw}},
			{"robust+predictive", core.ControllerConfig{DemandSmoothing: 0.7, Optimizer: core.Config{DemandMargin: 0.25}, Forecast: hw}},
		} {
			cases = append(cases, steadyCase{name: "regret/" + s.Name + "/" + leg.name, scn: s, cfg: leg.cfg})
		}
	}
	return cases
}

// TestSteadyPathMatchesFullRecompute is the licence for the cached
// steady path: every experiment's controller tick stream runs through
// the live controller and, beside it, through the full-recompute
// reference kept in steady_ref_test.go. On every tick the fingerprint
// vectors are bit-equal, the set of skipped shards and OptimizerStats
// equal, the published table, the demand estimate and the merged Plan
// reflect.DeepEqual, and routing.Equal answers exactly len(Diff) == 0.
func TestSteadyPathMatchesFullRecompute(t *testing.T) {
	totals := &core.SteadyTee{}
	run := func(t *testing.T, tee *core.SteadyTee) {
		t.Helper()
		for _, m := range tee.Mismatches {
			t.Error(m)
		}
		if tee.Ticks == 0 {
			t.Fatal("the stream never ticked; the comparison is vacuous")
		}
		totals.Ticks += tee.Ticks
		totals.Skips += tee.Skips
		totals.Solves += tee.Solves
		totals.Restamps += tee.Restamps
		totals.Refits += tee.Refits
	}
	for _, tc := range steadyCases() {
		t.Run(tc.name, func(t *testing.T) {
			tee, err := core.NewSteadyTee(tc.scn.Top, tc.scn.App, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			tee.SetDemand(demandAtStart(tc.scn.Workload))
			pol := &teePolicy{tee: tee, failoverAt: tc.failoverAt,
				failover: func() error { return tee.Failover(tc.scn.Top, tc.scn.App, tc.cfg) }}
			if _, err := simrun.Run(tc.scn, pol); err != nil {
				t.Fatal(err)
			}
			run(t, tee)
		})
	}
	t.Run("hachaos", func(t *testing.T) { run(t, haChaosStream(t)) })
	t.Run("generated", func(t *testing.T) { run(t, generatedStream(t)) })
	t.Logf("%d ticks: %d shard skips, %d shard solves, %d merged plans re-stamped from the cache, %d ticks with refit profiles",
		totals.Ticks, totals.Skips, totals.Solves, totals.Restamps, totals.Refits)
	if totals.Skips == 0 || totals.Solves == 0 || totals.Restamps == 0 || totals.Refits == 0 {
		t.Errorf("the streams must exercise skips, solves, re-stamped plans and refit profiles: %+v", totals)
	}
}

// haChaosStream is the controller tick stream of the hachaos experiment:
// 120 windows of the gateway's two arrival rates — steady, a west-heavy
// burst, then the flip to east-heavy on the window the leader dies —
// with an extra tick on the west report alone at each swing (a tick
// that lands between the two clusters' uploads) and, at the kill, the
// follower's snapshot restore.
func haChaosStream(t *testing.T) *core.SteadyTee {
	const n, period = 120, 100 * time.Millisecond
	top := topology.TwoClusters(10 * time.Millisecond)
	app := appgraph.LinearChain(appgraph.ChainOptions{
		Services: 3, MeanServiceTime: 10 * time.Millisecond,
		Pool:     appgraph.ReplicaPool{Replicas: 2, Concurrency: 4},
		Clusters: []topology.ClusterID{topology.West, topology.East},
	})
	cfg := core.ControllerConfig{DemandSmoothing: 1, Decompose: true}
	tee, err := core.NewSteadyTee(top, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stat := func(c topology.ClusterID, rps float64) telemetry.WindowStats {
		return telemetry.WindowStats{
			Key: telemetry.MetricKey{Service: string(app.FrontendService()), Class: "default", Cluster: string(c)},
			RPS: rps, Requests: uint64(rps * period.Seconds()), Window: period,
		}
	}
	steady, kill := n/6, n/6+(n-n/6)/2
	var lastWest float64
	for w := 0; w < n; w++ {
		west, east := 600.0, 100.0
		switch {
		case w >= kill:
			west, east = 100, 1400
		case w >= steady:
			west, east = 1400, 100
		}
		if w == kill {
			if err := tee.Failover(top, app, cfg); err != nil {
				t.Fatal(err)
			}
		}
		if w > 0 && west != lastWest { //slate:nolint floatcmp -- literal rates, compared for a phase change
			tee.Tick([]telemetry.WindowStats{stat(topology.West, west)}, period)
		}
		lastWest = west
		// Errors are part of the stream (the east-heavy burst exceeds
		// capacity for a window); the tee compares them.
		tee.Tick([]telemetry.WindowStats{stat(topology.East, east), stat(topology.West, west)}, period)
	}
	return tee
}

// generatedStream drives a generated 8-cluster / 8-class deployment (one
// shard per class, the search race armed, SkipEpsilon 2 % — the
// benchmark's controller at a sixth of its size) through the three kinds
// of tick the steady path distinguishes: ±1 % jitter that dirties no
// shard, one class moving, every class moving.
func generatedStream(t *testing.T) *core.SteadyTee {
	g, err := scenario.Generate(genSpec(8, 16, 8))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.ControllerConfig{DemandSmoothing: 1, Decompose: true, Search: true, SkipEpsilon: 0.02}
	tee, err := core.NewSteadyTee(g.Top, g.App, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(19)
	for tick := 0; tick < 40; tick++ {
		tee.Tick(genWindow(g, func(class int) float64 {
			f := 1 + 0.01*(2*rng.Float64()-1)
			switch {
			case tick%10 == 4 && class == tick/10: // one class swings
				f *= 1.3
			case tick%10 == 8 && class%2 == tick/10%2: // every shard is dirty
				f *= 1.15
			case tick%10 == 8:
				f *= 0.9
			}
			return f
		}), time.Second)
	}
	if tee.Live.OptimizerStats().Shards < 4 {
		t.Fatalf("generated app decomposes into %d shards; the stream needs several", tee.Live.OptimizerStats().Shards)
	}
	return tee
}

func genSpec(clusters, services, classes int) scenario.GenSpec {
	return scenario.GenSpec{
		Seed: 1, Clusters: clusters, Regions: 2, Services: services, Classes: classes,
		Spread: 3, Replicas: 3, Concurrency: 8, TotalRPS: 3000 * float64(classes), ArrivalSpread: 2,
		RemoteFraction: 0.1, MeanServiceTime: 2 * time.Millisecond,
	}
}

// genWindow is one merged telemetry window of a generated deployment:
// every arriving stream's rate at the frontend, scaled per class.
func genWindow(g *scenario.Generated, factor func(class int) float64) []telemetry.WindowStats {
	ord := map[string]int{}
	for i, cl := range g.App.Classes {
		ord[cl.Name] = i
	}
	var groups [][]telemetry.WindowStats
	for _, sp := range g.Workload {
		if rate := sp.RateAt(0) * factor(ord[sp.Class]); rate > 0 {
			groups = append(groups, []telemetry.WindowStats{{
				Key: telemetry.MetricKey{Service: string(g.App.FrontendService()), Class: sp.Class, Cluster: string(sp.Cluster)},
				RPS: rate, Requests: uint64(rate + 0.5), Window: time.Second, MeanLatency: 100 * time.Microsecond,
			}})
		}
	}
	return telemetry.Merge(groups...)
}

// TestSteadyTickAllocs pins what a tick costs when nothing changed: an
// all-skip ShardedOptimizer.Optimize allocates at most the re-stamped
// plan and its table header, and an all-skip Controller.Tick a small
// constant that does not grow with the number of rules, pools, classes
// or clusters — the same count on a deployment four times the size.
func TestSteadyTickAllocs(t *testing.T) {
	var tickAllocs []float64
	var rules []int
	for _, size := range []struct{ clusters, services, classes int }{{8, 16, 8}, {16, 64, 16}} {
		g, err := scenario.Generate(genSpec(size.clusters, size.services, size.classes))
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.ControllerConfig{DemandSmoothing: 1, Decompose: true, Search: true, SkipEpsilon: 0.02}
		ctrl, err := core.NewController(g.Top, g.App, cfg)
		if err != nil {
			t.Fatal(err)
		}
		window := genWindow(g, func(int) float64 { return 1 })
		for i := 0; i < 3; i++ {
			if _, err := ctrl.Tick(window, time.Second); err != nil {
				t.Fatal(err)
			}
		}
		opt := core.NewShardedOptimizer(g.Top, g.App, cfg.Optimizer, cfg.SkipEpsilon)
		version := uint64(0)
		optimize := func() {
			version++
			if _, err := opt.Optimize(ctrl.Demand(), ctrl.Profiles(), version); err != nil {
				t.Fatal(err)
			}
		}
		optimize()
		solved := opt.Stats().SubSolves
		if n := testing.AllocsPerRun(50, optimize); n > 4 {
			t.Errorf("%d clusters: an all-skip Optimize allocates %v objects, want <= 4", size.clusters, n)
		}
		before := ctrl.OptimizerStats()
		n := testing.AllocsPerRun(50, func() {
			if _, err := ctrl.Tick(window, time.Second); err != nil {
				t.Fatal(err)
			}
		})
		if after := ctrl.OptimizerStats(); after.SubSolves != before.SubSolves || opt.Stats().SubSolves != solved {
			t.Fatalf("%d clusters: the measured ticks solved shards; they must all skip", size.clusters)
		}
		tickAllocs = append(tickAllocs, n)
		rules = append(rules, ctrl.Table().Len())
	}
	if rules[0] < 16 || rules[1] < 3*rules[0] {
		t.Fatalf("published %v rules at the two sizes; the second must be several times the first", rules)
	}
	const steadyTickAllocs = 2 // the re-stamped Plan and its Table header
	for _, n := range tickAllocs {
		if n != steadyTickAllocs { //slate:nolint floatcmp -- AllocsPerRun returns an integer-valued count
			t.Errorf("all-skip Controller.Tick allocations at the two sizes = %v, want %d at both", tickAllocs, steadyTickAllocs)
			break
		}
	}
}
