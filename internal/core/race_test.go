package core

import (
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// raceFixture builds a 4-shard flat star app — gateway plus one worker
// service per class — over two clusters, with enough headroom to stay
// feasible across the perturbations the tests apply. Depth-1 call trees
// keep the search's per-source lower bound tight, so the race can
// certify results within DefaultMaxGap; deeper chains carry a looser
// bound and need a wider configured gap (see TestRaceAbandonsWideGap).
func raceFixture() (*topology.Topology, *appgraph.App) {
	top := topology.TwoClusters(40 * time.Millisecond)
	pool := appgraph.ReplicaPool{Replicas: 2, Concurrency: 4}
	front := appgraph.ReplicaPool{Replicas: 2, Concurrency: 64}
	app := &appgraph.App{Name: "flatstar", Services: map[appgraph.ServiceID]*appgraph.Service{}}
	const gateway appgraph.ServiceID = "gateway"
	app.Services[gateway] = &appgraph.Service{ID: gateway, Placement: appgraph.Uniform(front, topology.West, topology.East)}
	work := appgraph.Work{MeanServiceTime: 10 * time.Millisecond, RequestBytes: 1 << 10, ResponseBytes: 4 << 10}
	for k := 0; k < 4; k++ {
		a := appgraph.ServiceID("svc-" + string(rune('a'+k)))
		app.Services[a] = &appgraph.Service{ID: a, Placement: appgraph.Uniform(pool, topology.West, topology.East)}
		root := &appgraph.CallNode{
			Service: gateway, Method: "POST", Path: "/in",
			Work:  appgraph.Work{MeanServiceTime: 100 * time.Microsecond},
			Count: 1,
			Children: []*appgraph.CallNode{{
				Service: a, Method: "POST", Path: "/a", Work: work, Count: 1,
			}},
		}
		app.Classes = append(app.Classes, &appgraph.Class{Name: "c" + string(rune('a'+k)), Root: root})
	}
	return top, app
}

// TestRaceSearchServesWarmShards: after the cold first tick, perturbed
// shards should be served by the search leg, and the raced plan must
// score within the configured gap of the simplex plan on the exact LP.
func TestRaceSearchServesWarmShards(t *testing.T) {
	top, app := raceFixture()
	profiles := DefaultProfiles(app, top, starDemand(app, 500, 100))

	s := NewShardedOptimizer(top, app, Config{}, 0)
	s.EnableSearch(RaceConfig{MoveBudget: 1 << 14})
	if _, err := s.Optimize(starDemand(app, 500, 100), profiles, 1); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.SearchSolves != 0 {
		t.Fatalf("cold tick must not be served by search: %+v", st)
	}

	perturbed := starDemand(app, 640, 100)
	plan, err := s.Optimize(perturbed, profiles, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.SearchSolves == 0 {
		t.Fatalf("no shard served by search on the warm perturbed tick: %+v", st)
	}

	// Score the raced table on the exact monolithic LP and compare with
	// a from-scratch simplex solve of the same instance.
	p := &Problem{Top: top, App: app, Demand: perturbed, Profiles: profiles, Config: Config{}}
	obj, err := EvaluateTable(p, plan.Table)
	if err != nil {
		t.Fatalf("raced table rejected by the LP: %v", err)
	}
	exact, err := p.Optimize(2)
	if err != nil {
		t.Fatal(err)
	}
	gap := (obj - exact.Objective) / obj
	if gap > DefaultMaxGap+1e-9 {
		t.Errorf("raced plan gap %.4f exceeds MaxGap %.2f (obj %v vs optimum %v)",
			gap, DefaultMaxGap, obj, exact.Objective)
	}
	if math.Abs(plan.Objective-obj) > 1e-6*(1+obj) {
		t.Errorf("merged plan objective %v disagrees with LP score %v of its own table", plan.Objective, obj)
	}
}

// TestRaceAbandonsWideGap: an evaluation budget too small to descend
// plus an unreachable gap bound must lose every race, fall back to the
// simplex, and still produce the exact same plan a plain sharded
// optimizer produces.
func TestRaceAbandonsWideGap(t *testing.T) {
	// Deep chains: per-source rates at depth ≥ 2 are routing-dependent,
	// so the certified bound stays loose and a near-zero MaxGap is
	// unreachable even when the search lands on the optimum.
	top := topology.TwoClusters(40 * time.Millisecond)
	pool := appgraph.ReplicaPool{Replicas: 2, Concurrency: 4}
	front := appgraph.ReplicaPool{Replicas: 2, Concurrency: 64}
	app := starTestApp(4, front, pool, topology.West, topology.East)
	profiles := DefaultProfiles(app, top, starDemand(app, 500, 100))

	raced := NewShardedOptimizer(top, app, Config{}, 0)
	raced.EnableSearch(RaceConfig{MoveBudget: 1, MaxGap: 1e-12})
	plain := NewShardedOptimizer(top, app, Config{}, 0)

	for tick, west := range []float64{500, 700, 620} {
		rp, err := raced.Optimize(starDemand(app, west, 100), profiles, uint64(tick+1))
		if err != nil {
			t.Fatal(err)
		}
		pp, err := plain.Optimize(starDemand(app, west, 100), profiles, uint64(tick+1))
		if err != nil {
			t.Fatal(err)
		}
		plansEquivalent(t, pp, rp, 1e-9)
	}
	st := raced.Stats()
	if st.SearchSolves != 0 {
		t.Errorf("SearchSolves = %d, want 0 with an unreachable gap", st.SearchSolves)
	}
	if st.SimplexWins == 0 || st.GapAbandoned == 0 {
		t.Errorf("expected simplex wins and gap abandons, got %+v", st)
	}
	if st.SimplexWins != st.GapAbandoned {
		t.Errorf("every abandon should hand the shard to the simplex: %+v", st)
	}
}

// TestSearchRaceDeterminism: the race outcome is a logical function of
// its inputs — the winning tables are bit-identical at any GOMAXPROCS.
// CI runs this test at GOMAXPROCS 1/2/8 via the determinism matrix.
func TestSearchRaceDeterminism(t *testing.T) {
	top, app := raceFixture()
	profiles := DefaultProfiles(app, top, starDemand(app, 500, 100))

	run := func() []string {
		var tables []string
		s := NewShardedOptimizer(top, app, Config{}, 0)
		s.EnableSearch(RaceConfig{MoveBudget: 4096})
		for tick, west := range []float64{500, 640, 580, 700} {
			plan, err := s.Optimize(starDemand(app, west, 100), profiles, uint64(tick+1))
			if err != nil {
				t.Fatal(err)
			}
			tables = append(tables, plan.Table.String())
		}
		if st := s.Stats(); st.SearchSolves == 0 {
			t.Fatal("determinism run never exercised the search leg")
		}
		return tables
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var first []string
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		got := run()
		if first == nil {
			first = got
			continue
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("GOMAXPROCS %d tick %d diverged:\n%s\nvs\n%s", procs, i, got[i], first[i])
			}
		}
	}
}

// TestControllerSearchConfig: Search arms the race on the controller's
// pipeline, end to end.
func TestControllerSearchConfig(t *testing.T) {
	top, app := raceFixture()
	c, err := NewController(top, app, ControllerConfig{
		Decompose:      true,
		Search:         true,
		SearchDeadline: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.opt.race == nil {
		t.Fatal("race not armed")
	}

	c.SetDemand(starDemand(app, 500, 100))
	if _, err := c.Prime(); err != nil {
		t.Fatal(err)
	}
	c.SetDemand(starDemand(app, 640, 100))
	if _, err := c.Prime(); err != nil {
		t.Fatal(err)
	}
	st := c.OptimizerStats()
	if st.SearchSolves == 0 {
		t.Errorf("controller search path never won a race: %+v", st)
	}
}
