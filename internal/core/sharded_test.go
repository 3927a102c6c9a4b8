package core

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// starTestApp builds a decomposable app: one shared ingress gateway plus
// `classes` traffic classes, each calling its own disjoint two-service
// chain. Every class is its own shard (the only shared service is the
// frontend, touched only at roots).
func starTestApp(classes int, frontPool, pool appgraph.ReplicaPool, clusters ...topology.ClusterID) *appgraph.App {
	app := &appgraph.App{Name: "star", Services: map[appgraph.ServiceID]*appgraph.Service{}}
	const gateway appgraph.ServiceID = "gateway"
	app.Services[gateway] = &appgraph.Service{ID: gateway, Placement: appgraph.Uniform(frontPool, clusters...)}
	work := appgraph.Work{MeanServiceTime: 10 * time.Millisecond, RequestBytes: 1 << 10, ResponseBytes: 4 << 10}
	for k := 0; k < classes; k++ {
		a := appgraph.ServiceID("svc-" + string(rune('a'+k)) + "1")
		b := appgraph.ServiceID("svc-" + string(rune('a'+k)) + "2")
		app.Services[a] = &appgraph.Service{ID: a, Placement: appgraph.Uniform(pool, clusters...)}
		app.Services[b] = &appgraph.Service{ID: b, Placement: appgraph.Uniform(pool, clusters...)}
		root := &appgraph.CallNode{
			Service: gateway, Method: "POST", Path: "/in",
			Work:  appgraph.Work{MeanServiceTime: 100 * time.Microsecond},
			Count: 1,
			Children: []*appgraph.CallNode{{
				Service: a, Method: "POST", Path: "/a", Work: work, Count: 1,
				Children: []*appgraph.CallNode{{
					Service: b, Method: "POST", Path: "/b", Work: work, Count: 1,
				}},
			}},
		}
		app.Classes = append(app.Classes, &appgraph.Class{Name: "c" + string(rune('a'+k)), Root: root})
	}
	return app
}

func starDemand(app *appgraph.App, west, east float64) Demand {
	d := Demand{}
	for _, cl := range app.Classes {
		d[cl.Name] = map[topology.ClusterID]float64{topology.West: west, topology.East: east}
	}
	return d
}

func plansEquivalent(t *testing.T, mono, dec *Plan, eps float64) {
	t.Helper()
	keys := map[routing.Key]bool{}
	for _, k := range mono.Table.Keys() {
		keys[k] = true
	}
	for _, k := range dec.Table.Keys() {
		keys[k] = true
	}
	for k := range keys {
		mw := mono.Table.Lookup(k.Service, k.Class, k.Cluster).Weights()
		dw := dec.Table.Lookup(k.Service, k.Class, k.Cluster).Weights()
		cls := map[topology.ClusterID]bool{}
		for c := range mw {
			cls[c] = true
		}
		for c := range dw {
			cls[c] = true
		}
		for c := range cls {
			if math.Abs(mw[c]-dw[c]) > eps {
				t.Errorf("rule %v weight[%s]: monolithic %.6f vs decomposed %.6f", k, c, mw[c], dw[c])
			}
		}
	}
}

func TestShardedPartition(t *testing.T) {
	top := topology.TwoClusters(40 * time.Millisecond)
	pool := appgraph.ReplicaPool{Replicas: 2, Concurrency: 4}
	front := appgraph.ReplicaPool{Replicas: 2, Concurrency: 64}

	app := starTestApp(4, front, pool, topology.West, topology.East)
	s := NewShardedOptimizer(top, app, Config{}, 0)
	if len(s.shards) != 4 {
		t.Errorf("star app shards = %d, want 4", len(s.shards))
	}
	// A shard keeps its tableau's rows in an lp.Solver of its own, and
	// solves in its worker's Workspace (solveShard): a dense scratch per
	// shard held hundreds of MB at 48 clusters × 24 shards, a sparse one
	// some 1.5 MB.
	for i, sh := range s.shards {
		if sh.opt.solver == nil {
			t.Errorf("shard %d keeps no lp.Solver of its own", i)
		}
	}

	// Single class: one shard.
	chain := appgraph.LinearChain(appgraph.ChainOptions{})
	if got := len(NewShardedOptimizer(top, chain, Config{}, 0).shards); got != 1 {
		t.Errorf("single-class shards = %d, want 1", got)
	}

	// A class calling the frontend at a non-root position forces the
	// single-shard fallback: its variable load on the frontend pool
	// couples every class.
	coupled := starTestApp(3, front, pool, topology.West, topology.East)
	leaf := coupled.Classes[1].Root.Children[0].Children[0]
	leaf.Children = []*appgraph.CallNode{{
		Service: "gateway", Method: "POST", Path: "/loop",
		Work: appgraph.Work{MeanServiceTime: 100 * time.Microsecond}, Count: 1,
	}}
	if got := len(NewShardedOptimizer(top, coupled, Config{}, 0).shards); got != 1 {
		t.Errorf("frontend-coupled shards = %d, want 1 (fallback)", got)
	}
}

// TestShardedMatchesMonolithic holds the decomposed, warm-started
// pipeline to the reference: Problem.Optimize, the whole app as one LP
// built and solved from scratch.
func TestShardedMatchesMonolithic(t *testing.T) {
	top := topology.TwoClusters(40 * time.Millisecond)
	app := starTestApp(3, appgraph.ReplicaPool{Replicas: 2, Concurrency: 64},
		appgraph.ReplicaPool{Replicas: 2, Concurrency: 4}, topology.West, topology.East)
	profs := DefaultProfiles(app, top, Demand{})

	mono := func(d Demand, version uint64) (*Plan, error) {
		return (&Problem{Top: top, App: app, Demand: d, Profiles: profs}).Optimize(version)
	}
	dec := NewShardedOptimizer(top, app, Config{}, 0)

	// Several ticks with drifting demand, exercising both the cold and
	// warm solve paths of every subproblem.
	wests := []float64{900, 700, 950, 400}
	for i, w := range wests {
		d := starDemand(app, w, 100)
		// Make classes asymmetric so the shards genuinely differ.
		d["cb"][topology.West] = w / 2
		d["cc"][topology.East] = 50
		mp, err := mono(d, uint64(i+1))
		if err != nil {
			t.Fatalf("monolithic tick %d: %v", i, err)
		}
		dp, err := dec.Optimize(d, profs, uint64(i+1))
		if err != nil {
			t.Fatalf("decomposed tick %d: %v", i, err)
		}
		plansEquivalent(t, mp, dp, 1e-6)
		if dp.Table.Version != uint64(i+1) {
			t.Errorf("tick %d: merged table version = %d", i, dp.Table.Version)
		}
	}

	// Merged egress totals agree with the monolithic plan.
	d := starDemand(app, 900, 100)
	mp, _ := mono(d, 10)
	dp, _ := dec.Optimize(d, profs, 10)
	if math.Abs(mp.EgressBytesPerSecond-dp.EgressBytesPerSecond) > 1e-3*math.Max(1, mp.EgressBytesPerSecond) {
		t.Errorf("egress bytes: monolithic %.3f vs decomposed %.3f", mp.EgressBytesPerSecond, dp.EgressBytesPerSecond)
	}
}

func TestShardedSkipsUnchangedSubproblems(t *testing.T) {
	top := topology.TwoClusters(40 * time.Millisecond)
	app := starTestApp(3, appgraph.ReplicaPool{Replicas: 2, Concurrency: 64},
		appgraph.ReplicaPool{Replicas: 2, Concurrency: 4}, topology.West, topology.East)
	profs := DefaultProfiles(app, top, Demand{})
	dec := NewShardedOptimizer(top, app, Config{}, 0)

	d := starDemand(app, 800, 100)
	if _, err := dec.Optimize(d, profs, 1); err != nil {
		t.Fatal(err)
	}
	st := dec.Stats()
	if st.SubSolves != 3 || st.SkippedSolves != 0 {
		t.Fatalf("first tick: sub=%d skip=%d, want 3/0", st.SubSolves, st.SkippedSolves)
	}

	// Identical inputs: every subproblem skips.
	if _, err := dec.Optimize(d, profs, 2); err != nil {
		t.Fatal(err)
	}
	st = dec.Stats()
	if st.SubSolves != 3 || st.SkippedSolves != 3 {
		t.Fatalf("unchanged tick: sub=%d skip=%d, want 3/3", st.SubSolves, st.SkippedSolves)
	}

	// Perturb one class: exactly one subproblem re-solves.
	d2 := starDemand(app, 800, 100)
	d2["cb"][topology.West] = 500
	if _, err := dec.Optimize(d2, profs, 3); err != nil {
		t.Fatal(err)
	}
	st = dec.Stats()
	if st.SubSolves != 4 || st.SkippedSolves != 5 {
		t.Fatalf("perturbed tick: sub=%d skip=%d, want 4/5", st.SubSolves, st.SkippedSolves)
	}

	// A sub-epsilon wiggle still skips.
	d3 := starDemand(app, 800, 100)
	d3["cb"][topology.West] = 500 * (1 + 1e-12)
	if _, err := dec.Optimize(d3, profs, 4); err != nil {
		t.Fatal(err)
	}
	st = dec.Stats()
	if st.SubSolves != 4 || st.SkippedSolves != 8 {
		t.Fatalf("epsilon tick: sub=%d skip=%d, want 4/8", st.SubSolves, st.SkippedSolves)
	}
	if st.Shards != 3 {
		t.Errorf("stats shards = %d, want 3", st.Shards)
	}
}

// TestShardDirtyOnZeroToSmallSwing pins the fingerprint-comparison fix:
// a demand stream flipping from exactly zero to any nonzero rate — no
// matter how small — must mark its shard dirty. A pure relative epsilon
// can never distinguish 0 from 1e-10 (the relative gap is 100% but the
// absolute gap is sub-epsilon under a mixed rule), which would leave a
// newly arrived stream unrouted until it grew large.
func TestShardDirtyOnZeroToSmallSwing(t *testing.T) {
	top := topology.TwoClusters(40 * time.Millisecond)
	app := starTestApp(3, appgraph.ReplicaPool{Replicas: 2, Concurrency: 64},
		appgraph.ReplicaPool{Replicas: 2, Concurrency: 4}, topology.West, topology.East)
	profs := DefaultProfiles(app, top, Demand{})
	dec := NewShardedOptimizer(top, app, Config{}, 0)

	d := starDemand(app, 800, 100)
	d["cb"][topology.East] = 0
	if _, err := dec.Optimize(d, profs, 1); err != nil {
		t.Fatal(err)
	}
	st := dec.Stats()
	if st.SubSolves != 3 || st.SkippedSolves != 0 {
		t.Fatalf("first tick: sub=%d skip=%d, want 3/0", st.SubSolves, st.SkippedSolves)
	}

	// 0 → 1e-10: the cb shard must re-solve, the other two skip.
	d2 := starDemand(app, 800, 100)
	d2["cb"][topology.East] = 1e-10
	if _, err := dec.Optimize(d2, profs, 2); err != nil {
		t.Fatal(err)
	}
	st = dec.Stats()
	if st.SubSolves != 4 {
		t.Fatalf("zero-to-small tick: sub=%d, want 4 (shard cb must go dirty)", st.SubSolves)
	}
	if st.SkippedSolves != 2 {
		t.Fatalf("zero-to-small tick: skip=%d, want 2", st.SkippedSolves)
	}

	// And the mirror image: back to exactly zero is dirty again.
	d3 := starDemand(app, 800, 100)
	d3["cb"][topology.East] = 0
	if _, err := dec.Optimize(d3, profs, 3); err != nil {
		t.Fatal(err)
	}
	st = dec.Stats()
	if st.SubSolves != 5 || st.SkippedSolves != 4 {
		t.Fatalf("small-to-zero tick: sub=%d skip=%d, want 5/4", st.SubSolves, st.SkippedSolves)
	}
}

func TestShardedAggregateInfeasibility(t *testing.T) {
	// Each class alone fits the frontend pool, but the aggregate root
	// load exceeds it: the decomposed path must reject the demand like
	// the monolithic LP does, not "solve" three individually feasible
	// shards.
	top := topology.TwoClusters(40 * time.Millisecond)
	app := starTestApp(3, appgraph.ReplicaPool{Replicas: 1, Concurrency: 2},
		appgraph.ReplicaPool{Replicas: 8, Concurrency: 8}, topology.West, topology.East)
	// Give the gateway real work so its capacity binds: 5ms per call and
	// 2 servers → ~400 std RPS capacity before the utilization cap.
	for _, cl := range app.Classes {
		cl.Root.Work.MeanServiceTime = 5 * time.Millisecond
	}
	profs := DefaultProfiles(app, top, Demand{})

	d := starDemand(app, 150, 0) // 450 aggregate on west's frontend

	mono := newShardedOptimizer(top, app, Config{}, 0, false)
	_, monoErr := mono.Optimize(d, profs, 1)
	if monoErr == nil || !strings.Contains(monoErr.Error(), "infeasible") {
		t.Fatalf("monolithic error = %v, want infeasible", monoErr)
	}
	dec := NewShardedOptimizer(top, app, Config{}, 0)
	_, decErr := dec.Optimize(d, profs, 1)
	if decErr == nil || !strings.Contains(decErr.Error(), "infeasible") {
		t.Fatalf("decomposed error = %v, want infeasible", decErr)
	}

	// One class alone is feasible for both.
	small := Demand{"ca": {topology.West: 150}}
	if _, err := newShardedOptimizer(top, app, Config{}, 0, false).Optimize(small, profs, 1); err != nil {
		t.Fatalf("single class monolithic: %v", err)
	}
	if _, err := NewShardedOptimizer(top, app, Config{}, 0).Optimize(small, profs, 1); err != nil {
		t.Fatalf("single class decomposed: %v", err)
	}
}

// TestShardErrorTickMatchesSerial: dirty shards solve concurrently, and
// on a tick where a middle shard's LP fails the controller must still be
// the serial loop's — that shard's error returned, the shards before it
// committed, the ones after it (solved all the same) left as if never
// reached. Every shard is dirty on every tick, the failing one is
// infeasible for one tick only, and the serial reference of
// steady_ref_test.go shadows every tick, at GOMAXPROCS 1, 2 and 8, with
// the race armed (its tallies counted) and without (every solve moves a
// warm basis, which the shards after the failing one must get back).
func TestShardErrorTickMatchesSerial(t *testing.T) {
	top := topology.TwoClusters(40 * time.Millisecond)
	app := starTestApp(5, appgraph.ReplicaPool{Replicas: 2, Concurrency: 64},
		appgraph.ReplicaPool{Replicas: 2, Concurrency: 4}, topology.West, topology.East)
	const failing, errorTick = "cc", 3 // the third of five shards
	window := func(tick int) []telemetry.WindowStats {
		var out []telemetry.WindowStats
		for k, cl := range app.Classes {
			west := 300 + 40*float64((k+tick)%4)
			if cl.Name == failing && tick == errorTick {
				west = 5000 // past its pools' capacity, not the frontend's
			}
			for _, c := range []topology.ClusterID{topology.East, topology.West} {
				rps := 80.0
				if c == topology.West {
					rps = west
				}
				out = append(out, telemetry.WindowStats{
					Key: telemetry.MetricKey{Service: string(app.FrontendService()), Class: cl.Name, Cluster: string(c)},
					RPS: rps, Requests: uint64(rps), Window: time.Second,
				})
			}
		}
		return out
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, search := range []bool{false, true} {
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			at := fmt.Sprintf("search %v, GOMAXPROCS %d", search, procs)
			tee, err := NewSteadyTee(top, app, ControllerConfig{DemandSmoothing: 1, Decompose: true, Search: search})
			if err != nil {
				t.Fatal(err)
			}
			if n := len(tee.Live.opt.shards); n != 5 || tee.Live.opt.shards[2].classes[0].Name != failing {
				t.Fatalf("the app decomposes into %d shards; the test needs five with %s third", n, failing)
			}
			for tick := 0; tick < 8; tick++ {
				_, err := tee.Tick(window(tick), time.Second)
				if (err != nil) != (tick == errorTick) {
					t.Fatalf("%s, tick %d: err = %v", at, tick, err)
				}
			}
			for _, m := range tee.Mismatches {
				t.Errorf("%s: %s", at, m)
			}
			// Every shard commits a new plan on every tick but the error
			// tick, where the two before the failing one do and three do not.
			if tee.Solves != 5*8-3 || tee.Skips != 3 {
				t.Fatalf("%s: %d new sub-plans, %d kept; want %d and 3", at, tee.Solves, tee.Skips, 5*8-3)
			}
			if st := tee.Live.OptimizerStats(); search != (st.SearchSolves > 0 && st.SimplexWins > 0) {
				t.Fatalf("%s: %+v; an armed race must take both legs", at, st)
			}
		}
	}
}

func TestControllerDecomposeConfig(t *testing.T) {
	top := topology.TwoClusters(40 * time.Millisecond)
	app := starTestApp(2, appgraph.ReplicaPool{Replicas: 2, Concurrency: 64},
		appgraph.ReplicaPool{Replicas: 2, Concurrency: 4}, topology.West, topology.East)

	ctrl, err := NewController(top, app, ControllerConfig{Decompose: true})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.SetDemand(starDemand(app, 900, 100))
	if _, err := ctrl.Prime(); err != nil {
		t.Fatal(err)
	}
	st := ctrl.OptimizerStats()
	if st.Shards != 2 || st.SubSolves != 2 {
		t.Errorf("controller stats = %+v, want 2 shards / 2 sub-solves", st)
	}

	// Decompose: false is the same pipeline with one shard: it publishes
	// exactly the table the from-scratch reference LP produces, and skips
	// a bit-identical second tick like any other clean shard.
	mctrl, err := NewController(top, app, ControllerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mctrl.SetDemand(starDemand(app, 900, 100))
	if _, err := mctrl.Prime(); err != nil {
		t.Fatal(err)
	}
	ref, err := (&Problem{Top: top, App: app, Demand: mctrl.Demand(), Profiles: mctrl.Profiles()}).Optimize(mctrl.Version())
	if err != nil {
		t.Fatal(err)
	}
	requireSameTable(t, "one-shard controller vs Problem.Optimize", ref.Table, mctrl.Table())
	if _, err := mctrl.Prime(); err != nil {
		t.Fatal(err)
	}
	if st := mctrl.OptimizerStats(); st.Shards != 1 || st.SubSolves != 1 || st.SkippedSolves != 1 {
		t.Errorf("one-shard controller stats = %+v, want 1 shard / 1 sub-solve / 1 skip", st)
	}
	keys := ctrl.Table().Keys()
	if len(keys) == 0 {
		t.Fatal("decomposed controller published no rules")
	}
	for _, k := range keys {
		dw := ctrl.Table().Lookup(k.Service, k.Class, k.Cluster).Weights()
		mw := mctrl.Table().Lookup(k.Service, k.Class, k.Cluster).Weights()
		for c, w := range dw {
			if math.Abs(w-mw[c]) > 1e-6 {
				t.Errorf("rule %v: decomposed %.6f vs monolithic %.6f", k, w, mw[c])
			}
		}
	}
}
