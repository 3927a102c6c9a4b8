package search_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/queuemodel"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/search"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// chainProblem mirrors the core test scenario: two clusters, 3-service
// chain, 8 servers × 10ms per pool → 800 std-RPS capacity, 760 at the
// 95% cap.
func chainProblem(rtt time.Duration, westRPS, eastRPS float64, cfg core.Config) *core.Problem {
	top := topology.TwoClusters(rtt)
	app := appgraph.LinearChain(appgraph.ChainOptions{
		Services:        3,
		MeanServiceTime: 10 * time.Millisecond,
		Pool:            appgraph.ReplicaPool{Replicas: 2, Concurrency: 4},
		Clusters:        []topology.ClusterID{topology.West, topology.East},
	})
	demand := core.Demand{"default": {topology.West: westRPS, topology.East: eastRPS}}
	return &core.Problem{
		Top:      top,
		App:      app,
		Demand:   demand,
		Profiles: core.DefaultProfiles(app, top, demand),
		Config:   cfg,
	}
}

// poolFn adapts core profiles to the search optimizer's pool-params
// callback, with the same linearization the LP uses.
func poolFn(p *core.Problem) func(appgraph.ServiceID, topology.ClusterID) (search.PoolParams, bool) {
	return func(s appgraph.ServiceID, c topology.ClusterID) (search.PoolParams, bool) {
		prof, ok := p.Profiles.Get(s, c)
		if !ok {
			return search.PoolParams{}, false
		}
		segs, err := queuemodel.Linearize(prof.Model, p.Config.BreakFracs)
		if err != nil {
			return search.PoolParams{}, false
		}
		return search.PoolParams{Ref: prof.RefServiceTime.Seconds(), Segs: segs}, true
	}
}

func newSearch(t *testing.T, p *core.Problem, incumbent *routing.Table) *search.Optimizer {
	t.Helper()
	o := search.New(p.Top, p.App, search.Params{
		LatencyWeight: p.Config.LatencyWeight,
		CostWeight:    p.Config.CostWeight,
	})
	if err := o.Reset(p.Demand, poolFn(p), incumbent); err != nil {
		t.Fatal(err)
	}
	return o
}

// TestSearchRestoresFeasibilityAndNearsOptimum: west demand 900 exceeds
// the 760 west cap, so the all-local incumbent is infeasible; search
// must shed the overload east and land within a few percent of the LP
// optimum, certified by its own lower bound.
func TestSearchRestoresFeasibilityAndNearsOptimum(t *testing.T) {
	p := chainProblem(40*time.Millisecond, 900, 100, core.Config{})
	plan, err := p.Optimize(1)
	if err != nil {
		t.Fatal(err)
	}
	opt := plan.Objective

	o := newSearch(t, p, routing.EmptyTable())
	res := o.Run(1 << 16)
	if !res.Feasible {
		t.Fatalf("search did not restore feasibility: %+v", res)
	}
	if res.LowerBound > opt+1e-6*(1+opt) {
		t.Fatalf("certified lower bound %v exceeds LP optimum %v", res.LowerBound, opt)
	}
	table := o.Table(2)
	obj, err := core.EvaluateTable(p, table)
	if err != nil {
		t.Fatalf("search table rejected by the LP: %v", err)
	}
	if obj < opt-1e-6*(1+opt) {
		t.Fatalf("table scored %v below the LP optimum %v — objective mismatch", obj, opt)
	}
	if obj > opt*1.05 {
		t.Errorf("search landed at %v, more than 5%% above the optimum %v", obj, opt)
	}
	// The certified gap brackets the true gap.
	trueGap := (obj - opt) / obj
	if res.Gap < trueGap-1e-9 {
		t.Errorf("certified gap %v below true gap %v", res.Gap, trueGap)
	}
}

// TestSearchObjectiveMatchesLP: the search's internal objective of a
// feasible state must equal the LP's EvalObjective of the same table —
// the two cost models are the same model.
func TestSearchObjectiveMatchesLP(t *testing.T) {
	for _, west := range []float64{200, 500, 900} {
		p := chainProblem(40*time.Millisecond, west, 100, core.Config{})
		o := newSearch(t, p, routing.EmptyTable())
		res := o.Run(1 << 14)
		if !res.Feasible {
			t.Fatalf("west=%v: infeasible", west)
		}
		obj, err := core.EvaluateTable(p, o.Table(1))
		if err != nil {
			t.Fatalf("west=%v: %v", west, err)
		}
		if math.Abs(obj-res.Objective) > 1e-6*(1+obj) {
			t.Errorf("west=%v: search objective %v, LP scores the same table %v", west, res.Objective, obj)
		}
	}
}

// TestSearchKeepsLightLoadLocal: with light demand the local incumbent
// is optimal; search must converge immediately without moving anything.
func TestSearchKeepsLightLoadLocal(t *testing.T) {
	p := chainProblem(40*time.Millisecond, 200, 100, core.Config{})
	o := newSearch(t, p, routing.EmptyTable())
	res := o.Run(1 << 14)
	if !res.Converged || !res.Feasible {
		t.Fatalf("light load should converge feasibly: %+v", res)
	}
	if res.Moves != 0 {
		t.Errorf("light local load needed %d moves, want 0", res.Moves)
	}
	table := o.Table(1)
	for _, k := range table.Keys() {
		d, _ := table.Get(k)
		if w := d.Weight(k.Cluster); math.Abs(w-1) > 1e-9 {
			t.Errorf("rule %v routes %v local, want 1", k, w)
		}
	}
}

// TestSearchAnytime: any budget — even one too small to converge —
// yields a complete table the LP accepts when the incumbent was
// feasible.
func TestSearchAnytime(t *testing.T) {
	p := chainProblem(40*time.Millisecond, 500, 100, core.Config{})
	for _, budget := range []int{0, 1, 4, 16, 64} {
		o := newSearch(t, p, routing.EmptyTable())
		res := o.Run(budget)
		if !res.Feasible {
			t.Fatalf("budget %d: feasible incumbent became infeasible", budget)
		}
		if _, err := core.EvaluateTable(p, o.Table(1)); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if res.Evals > budget+8 {
			t.Errorf("budget %d: consumed %d evaluations", budget, res.Evals)
		}
	}
}

// TestSearchDeterminism: the same inputs produce bit-identical tables
// across fresh optimizers.
func TestSearchDeterminism(t *testing.T) {
	p := chainProblem(40*time.Millisecond, 900, 100, core.Config{})
	var first string
	for i := 0; i < 3; i++ {
		o := newSearch(t, p, routing.EmptyTable())
		res := o.Run(4096)
		s := o.Table(1).String()
		if i == 0 {
			first = s
			continue
		}
		if s != first {
			t.Fatalf("run %d diverged:\n%s\nvs\n%s", i, s, first)
		}
		_ = res
	}
}

// TestSearchPartialPlacement: AnomalyDetection's DB lives only in east;
// search must route every west DB call east and stay feasible.
func TestSearchPartialPlacement(t *testing.T) {
	top := topology.TwoClusters(40 * time.Millisecond)
	app := appgraph.AnomalyDetection(appgraph.AnomalyOptions{})
	demand := core.Demand{"detect": {topology.West: 100, topology.East: 50}}
	p := &core.Problem{Top: top, App: app, Demand: demand,
		Profiles: core.DefaultProfiles(app, top, demand), Config: core.Config{}}
	o := newSearch(t, p, routing.EmptyTable())
	res := o.Run(1 << 14)
	if !res.Feasible {
		t.Fatalf("infeasible: %+v", res)
	}
	table := o.Table(1)
	if _, err := core.EvaluateTable(p, table); err != nil {
		t.Fatal(err)
	}
	d := table.Lookup(string(appgraph.AnomalyDB), "detect", topology.West)
	if w := d.Weight(topology.East); math.Abs(w-1) > 1e-9 {
		t.Errorf("DB calls from west route %v east, want 1.0", w)
	}
}

// TestSearchLowerBoundBelowOptimum across demand levels and weights.
func TestSearchLowerBoundBelowOptimum(t *testing.T) {
	cases := []struct {
		west, east float64
		cfg        core.Config
	}{
		{200, 100, core.Config{}},
		{700, 100, core.Config{}},
		{900, 100, core.Config{}},
		{500, 400, core.Config{LatencyWeight: 1, CostWeight: 1e4}},
	}
	for _, tc := range cases {
		p := chainProblem(40*time.Millisecond, tc.west, tc.east, tc.cfg)
		plan, err := p.Optimize(1)
		if err != nil {
			t.Fatal(err)
		}
		o := newSearch(t, p, plan.Table)
		if lb := search.LowerBound(o); lb > plan.Objective+1e-6*(1+plan.Objective) {
			t.Errorf("west=%v cfg=%+v: lower bound %v above optimum %v",
				tc.west, tc.cfg, lb, plan.Objective)
		}
	}
}

// TestSearchFromOptimalIncumbent: seeding with the LP's own table must
// stay at (not degrade from) the optimum.
func TestSearchFromOptimalIncumbent(t *testing.T) {
	p := chainProblem(40*time.Millisecond, 900, 100, core.Config{})
	plan, err := p.Optimize(1)
	if err != nil {
		t.Fatal(err)
	}
	o := newSearch(t, p, plan.Table)
	res := o.Run(1 << 14)
	if !res.Feasible {
		t.Fatalf("optimal incumbent became infeasible: %+v", res)
	}
	obj, err := core.EvaluateTable(p, o.Table(1))
	if err != nil {
		t.Fatal(err)
	}
	if obj > plan.Objective*(1+1e-6) {
		t.Errorf("search degraded the optimal incumbent: %v > %v", obj, plan.Objective)
	}
}

// TestSearchResetErrors: demand arriving where the frontend has no
// replicas must be rejected, as in the LP build.
func TestSearchResetErrors(t *testing.T) {
	top := topology.TwoClusters(40 * time.Millisecond)
	app := appgraph.AnomalyDetection(appgraph.AnomalyOptions{}) // frontend west-only
	p := &core.Problem{Top: top, App: app,
		Demand:   core.Demand{"detect": {topology.East: 10}},
		Profiles: core.DefaultProfiles(app, top, core.Demand{"detect": {topology.West: 10}}),
		Config:   core.Config{}}
	frontendEastPlaced := app.Services[app.FrontendService()].PlacedIn(topology.East)
	o := search.New(p.Top, p.App, search.Params{LatencyWeight: 1})
	err := o.Reset(p.Demand, poolFn(p), routing.EmptyTable())
	if frontendEastPlaced {
		t.Skip("scenario places the frontend in east; nothing to reject")
	}
	if err == nil || !strings.Contains(err.Error(), "not placed") {
		t.Fatalf("Reset = %v, want unplaced-frontend error", err)
	}
}

// TestSearchSetDemand: the hot setter matches a fresh Reset.
func TestSearchSetDemand(t *testing.T) {
	p := chainProblem(40*time.Millisecond, 500, 100, core.Config{})
	o := newSearch(t, p, routing.EmptyTable())
	if err := o.SetDemand("default", topology.West, 900); err != nil {
		t.Fatal(err)
	}
	if err := o.SetDemand("nope", topology.West, 1); err != search.ErrUnknownKey {
		t.Fatalf("unknown class: err = %v, want ErrUnknownKey", err)
	}
	res := o.Run(1 << 16)
	if !res.Feasible {
		t.Fatalf("infeasible after SetDemand: %+v", res)
	}

	p2 := chainProblem(40*time.Millisecond, 900, 100, core.Config{})
	p2.Profiles = p.Profiles // same profiles: isolate the demand change
	o2 := newSearch(t, p2, routing.EmptyTable())
	res2 := o2.Run(1 << 16)
	if math.Abs(res.Objective-res2.Objective) > 1e-6*(1+res2.Objective) {
		t.Errorf("SetDemand path objective %v, fresh Reset %v", res.Objective, res2.Objective)
	}
	if o.Table(9).String() != o2.Table(9).String() {
		t.Error("SetDemand path and fresh Reset produced different tables")
	}
}

// TestSearchRunAllocs pins the whole hot loop — SetDemand refresh plus
// a budgeted Run with real committed moves — at zero allocations.
func TestSearchRunAllocs(t *testing.T) {
	p := chainProblem(40*time.Millisecond, 700, 100, core.Config{})
	o := newSearch(t, p, routing.EmptyTable())
	o.Run(1 << 14) // warm: converge once

	demands := [2]float64{650, 900}
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		i++
		if err := o.SetDemand("default", topology.West, demands[i&1]); err != nil {
			t.Fatal(err)
		}
		res := o.Run(512)
		if !res.Feasible {
			t.Fatal("infeasible during alloc pin")
		}
		if i&1 == 1 && res.Moves == 0 {
			t.Fatal("no moves committed: the pin is not exercising the move loop")
		}
	})
	if allocs != 0 { //slate:nolint floatcmp -- AllocsPerRun returns an integer-valued count
		t.Fatalf("search hot loop allocates %v per run, want 0", allocs)
	}
}
