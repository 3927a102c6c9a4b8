package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/lp"
	"github.com/servicelayernetworking/slate/internal/queuemodel"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// within compares warm- and cold-path results. Warm starts pivot in a
// different order than cold solves, so roundoff accumulates differently;
// the tolerance is looser than almostEqual but far below anything a
// routing decision could notice.
func within(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b))
}

// gcpScenario mirrors the OptimizerSolve benchmark: the four-cluster GCP
// topology (asymmetric RTTs, so optima are unique) with a 3-service
// chain replicated everywhere.
func gcpScenario() (*topology.Topology, *appgraph.App) {
	top := topology.GCPTopology()
	app := appgraph.LinearChain(appgraph.ChainOptions{
		Services:        3,
		MeanServiceTime: 10 * time.Millisecond,
		Pool:            appgraph.ReplicaPool{Replicas: 2, Concurrency: 4},
		Clusters:        top.ClusterIDs(),
	})
	return top, app
}

func gcpDemand(or, ut, iow, sc float64) Demand {
	return Demand{"default": {
		topology.OR: or, topology.UT: ut, topology.IOW: iow, topology.SC: sc,
	}}
}

// TestOptimizerMatchesStatelessAcrossDemandDrift is the SLATE-problem
// differential test: a cached, warm-started Optimizer must track the
// stateless Problem.Optimize through a random demand walk.
func TestOptimizerMatchesStatelessAcrossDemandDrift(t *testing.T) {
	top, app := gcpScenario()
	demand := gcpDemand(1000, 100, 1000, 100)
	profs := DefaultProfiles(app, top, demand)
	opt := NewOptimizer(top, app, Config{})

	rng := rand.New(rand.NewSource(5))
	for tick := 0; tick < 40; tick++ {
		warm, err := opt.Optimize(demand, profs, uint64(tick+1))
		if err != nil {
			t.Fatalf("tick %d: optimizer: %v", tick, err)
		}
		prob := &Problem{Top: top, App: app, Demand: demand, Profiles: profs, Config: Config{}}
		cold, err := prob.Optimize(uint64(tick + 1))
		if err != nil {
			t.Fatalf("tick %d: stateless: %v", tick, err)
		}
		if !within(warm.Objective, cold.Objective) {
			t.Fatalf("tick %d: objective %v (optimizer) vs %v (stateless)", tick, warm.Objective, cold.Objective)
		}
		if !within(warm.EgressBytesPerSecond, cold.EgressBytesPerSecond) {
			t.Fatalf("tick %d: egress %v vs %v", tick, warm.EgressBytesPerSecond, cold.EgressBytesPerSecond)
		}
		if len(warm.Loads) != len(cold.Loads) {
			t.Fatalf("tick %d: %d loads vs %d", tick, len(warm.Loads), len(cold.Loads))
		}
		for i := range cold.Loads {
			if warm.Loads[i].Key != cold.Loads[i].Key {
				t.Fatalf("tick %d: load key %v vs %v", tick, warm.Loads[i].Key, cold.Loads[i].Key)
			}
			if !within(warm.Loads[i].StdRPS, cold.Loads[i].StdRPS) {
				t.Fatalf("tick %d: pool %v load %v vs %v", tick, warm.Loads[i].Key, warm.Loads[i].StdRPS, cold.Loads[i].StdRPS)
			}
		}
		// Drift each cluster's demand by up to ±2% per tick, the
		// steady-state regime warm starts are built for. (Larger jumps
		// routinely push the previous basis primal-infeasible, which is
		// the designed cold-fallback path, not the one under test.)
		// Iterate in sorted order so the walk consumes the seeded RNG
		// deterministically — map order would make the test flaky.
		classes := make([]string, 0, len(demand))
		for class := range demand {
			classes = append(classes, class)
		}
		sort.Strings(classes)
		for _, class := range classes {
			per := demand[class]
			ids := make([]topology.ClusterID, 0, len(per))
			for c := range per {
				ids = append(ids, c)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			for _, c := range ids {
				per[c] *= 0.98 + 0.04*rng.Float64()
			}
		}
	}
	st := opt.Stats()
	if st.Builds != 1 {
		t.Fatalf("builds = %d, want 1 (structure never changed)", st.Builds)
	}
	if st.WarmSolves < 30 {
		t.Fatalf("warm solves = %d of 40, want ≥ 30 under small drift", st.WarmSolves)
	}
}

// TestOptimizerTracksProfileRefit refits profiles between ticks (new
// server counts and reference service times) and checks the cached
// formulation picks the changes up — segment slopes, widths, and load
// scale coefficients are all rewritten in place.
func TestOptimizerTracksProfileRefit(t *testing.T) {
	top, app := gcpScenario()
	demand := gcpDemand(900, 200, 800, 150)
	profs := DefaultProfiles(app, top, demand)
	opt := NewOptimizer(top, app, Config{})

	if _, err := opt.Optimize(demand, profs, 1); err != nil {
		t.Fatalf("initial: %v", err)
	}
	// Refit: halve one pool's servers, stretch another's reference
	// service time.
	ids := top.ClusterIDs()
	for sid := range app.Services {
		pp, ok := profs.Get(sid, ids[0])
		if !ok {
			t.Fatalf("missing profile for %s", sid)
		}
		pp.Servers = pp.Servers / 2
		pp.Model = queuemodel.NewMMc(pp.Servers, pp.RefServiceTime)
		profs.set(sid, ids[0], pp)

		pp2, ok := profs.Get(sid, ids[1])
		if !ok {
			t.Fatalf("missing profile for %s", sid)
		}
		pp2.RefServiceTime = pp2.RefServiceTime * 3 / 2
		profs.set(sid, ids[1], pp2)
	}
	warm, err := opt.Optimize(demand, profs, 2)
	if err != nil {
		t.Fatalf("after refit: %v", err)
	}
	prob := &Problem{Top: top, App: app, Demand: demand, Profiles: profs, Config: Config{}}
	cold, err := prob.Optimize(2)
	if err != nil {
		t.Fatalf("stateless after refit: %v", err)
	}
	if !within(warm.Objective, cold.Objective) {
		t.Fatalf("objective %v (optimizer) vs %v (stateless) after refit", warm.Objective, cold.Objective)
	}
	for i := range cold.Loads {
		if !within(warm.Loads[i].StdRPS, cold.Loads[i].StdRPS) {
			t.Fatalf("pool %v load %v vs %v after refit", warm.Loads[i].Key, warm.Loads[i].StdRPS, cold.Loads[i].StdRPS)
		}
	}
	if st := opt.Stats(); st.Builds != 1 {
		t.Fatalf("builds = %d, want 1 (refit is an in-place update)", st.Builds)
	}
}

// TestOptimizerInfeasibleThenRecovers drives demand beyond capacity (the
// cached basis cannot stay feasible) and back, checking the optimizer
// reports infeasibility exactly like the stateless path and then
// recovers with a cold re-solve.
func TestOptimizerInfeasibleThenRecovers(t *testing.T) {
	top, app := gcpScenario()
	demand := gcpDemand(1000, 100, 1000, 100)
	profs := DefaultProfiles(app, top, demand)
	opt := NewOptimizer(top, app, Config{})

	if _, err := opt.Optimize(demand, profs, 1); err != nil {
		t.Fatalf("initial: %v", err)
	}
	over := gcpDemand(1e7, 1e7, 1e7, 1e7)
	if _, err := opt.Optimize(over, profs, 2); err == nil {
		t.Fatal("expected infeasibility at 10M RPS per cluster")
	}
	plan, err := opt.Optimize(demand, profs, 3)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if plan.Table == nil || plan.Table.Version != 3 {
		t.Fatalf("recovery plan table %+v", plan.Table)
	}
}

// TestControllerHoldsTableOnIterLimit starves the solver's pivot budget
// and checks Tick degrades to holding the published table (no policy
// error), then resumes optimizing once the budget is restored.
func TestControllerHoldsTableOnIterLimit(t *testing.T) {
	top, app := gcpScenario()
	ctl, err := NewController(top, app, ControllerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctl.SetDemand(gcpDemand(800, 200, 700, 100))
	before, err := ctl.Prime()
	if err != nil {
		t.Fatalf("prime: %v", err)
	}

	restore := lp.SetIterBudgetScale(0)
	tab, err := ctl.Tick(nil, time.Second)
	restore()
	if err != nil {
		t.Fatalf("tick under starved budget: %v (want silent hold)", err)
	}
	if tab != before {
		t.Fatal("table changed during iteration-limit hold")
	}
	if got := ctl.IterLimitHolds(); got != 1 {
		t.Fatalf("IterLimitHolds = %d, want 1", got)
	}

	if _, err := ctl.Tick(nil, time.Second); err != nil {
		t.Fatalf("tick after restore: %v", err)
	}
	if got := ctl.IterLimitHolds(); got != 1 {
		t.Fatalf("IterLimitHolds = %d after recovery, want 1", got)
	}
}
