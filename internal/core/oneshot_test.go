package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// oneShotProblems are the inputs Problem.Optimize is held to the
// standalone optimizer on: the Fig. 6 settings, the GCP chain under the
// robust margin, and the scalability figure's star app at n = 8 (one
// shard of eight classes over an eight-cluster ring).
func oneShotProblems() map[string]*Problem {
	chain := func(clusters ...topology.ClusterID) *appgraph.App {
		return appgraph.LinearChain(appgraph.ChainOptions{
			Services:        3,
			MeanServiceTime: 10 * time.Millisecond,
			Pool:            appgraph.ReplicaPool{Replicas: 2, Concurrency: 4},
			Clusters:        clusters,
		})
	}
	problem := func(top *topology.Topology, app *appgraph.App, demand Demand, cfg Config) *Problem {
		return &Problem{Top: top, App: app, Demand: demand, Profiles: DefaultProfiles(app, top, demand), Config: cfg}
	}
	out := map[string]*Problem{}

	two := topology.TwoClusters(40 * time.Millisecond)
	out["fig6a"] = problem(two, chain(topology.West, topology.East),
		Demand{"default": {topology.West: 900, topology.East: 100}}, Config{})

	gcp := topology.GCPTopology()
	out["fig6b"] = problem(gcp, chain(gcp.ClusterIDs()...),
		Demand{"default": {topology.OR: 1090, topology.UT: 100, topology.IOW: 1090, topology.SC: 100}}, Config{})

	anomaly := appgraph.AnomalyDetection(appgraph.AnomalyOptions{
		Clusters:    []topology.ClusterID{topology.West, topology.East},
		DBClusters:  []topology.ClusterID{topology.East},
		ProcessTime: 8 * time.Millisecond,
		QueryTime:   4 * time.Millisecond,
		Pool:        appgraph.ReplicaPool{Replicas: 3, Concurrency: 4},
	})
	anomaly.Services[appgraph.AnomalyMP].Placement[topology.West] = appgraph.ReplicaPool{Replicas: 1, Concurrency: 4}
	out["fig6c"] = problem(two, anomaly,
		Demand{"detect": {topology.West: 600, topology.East: 100}}, Config{LatencyWeight: 1, CostWeight: 1e4})

	out["fig6d"] = problem(topology.TwoClusters(30*time.Millisecond),
		appgraph.TwoClassApp(appgraph.TwoClassOptions{
			LightTime: 2 * time.Millisecond,
			HeavyTime: 20 * time.Millisecond,
			Pool:      appgraph.ReplicaPool{Replicas: 2, Concurrency: 4},
		}),
		Demand{"L": {topology.West: 400, topology.East: 50}, "H": {topology.West: 330, topology.East: 50}}, Config{})

	top, app := gcpScenario()
	out["gcp chain robust"] = problem(top, app, gcpDemand(1000, 100, 1000, 100), Config{DemandMargin: 0.25})

	const n = 8
	b := topology.NewBuilder(topology.DefaultEgressPerGB)
	ring := make([]topology.ClusterID, n)
	for i := range ring {
		ring[i] = topology.ClusterID(fmt.Sprintf("c%02d", i))
		b.AddCluster(ring[i], "region")
	}
	for i := range ring {
		for j := i + 1; j < n; j++ {
			hops := min(j-i, n-(j-i))
			b.SetRTT(ring[i], ring[j], time.Duration(10+20*hops)*time.Millisecond)
		}
	}
	star := starTestApp(n, appgraph.ReplicaPool{Replicas: 4, Concurrency: 8}, appgraph.ReplicaPool{Replicas: 2, Concurrency: 4}, ring...)
	demand := Demand{}
	for _, cl := range star.Classes {
		demand[cl.Name] = map[topology.ClusterID]float64{}
		for _, c := range ring {
			demand[cl.Name][c] = 200
		}
	}
	out["star n=8"] = problem(b.MustBuild(), star, demand, Config{})
	return out
}

// TestOneShotMatchesStandalone holds Problem.Optimize, a one-shard
// ShardedOptimizer's first solve, to the standalone optimizer it
// replaced (standalone_ref_test.go): the same rules to the bit, the same
// objective, loads, predicted latencies and egress, and on inputs no
// plan can be made for, the same error.
func TestOneShotMatchesStandalone(t *testing.T) {
	problems := oneShotProblems()
	for _, name := range slices.Sorted(maps.Keys(problems)) {
		p := problems[name]
		t.Run(name, func(t *testing.T) {
			got, err := p.Optimize(7)
			if err != nil {
				t.Fatal(err)
			}
			want, err := standaloneOptimize(p, 7)
			if err != nil {
				t.Fatal(err)
			}
			if d := routing.Diff(want.Table, got.Table); len(d) != 0 {
				t.Fatalf("routing.Diff = %v", d)
			}
			tee := &ExtractTee{}
			tee.compare(name, got, want)
			for _, m := range tee.Mismatches {
				t.Error(m)
			}
		})
	}

	top, app := gcpScenario()
	demand := gcpDemand(1000, 100, 1000, 100)
	profs := DefaultProfiles(app, top, demand)
	missing := DefaultProfiles(app, top, demand)
	delete(missing, app.Classes[0].Root.Children[0].Service)
	for _, c := range []struct {
		name string
		p    Problem
	}{
		{"nil topology", Problem{App: app, Demand: demand, Profiles: profs}},
		{"nil app", Problem{Top: top, Demand: demand, Profiles: profs}},
		{"invalid app", Problem{Top: top, App: &appgraph.App{Name: "empty"}, Demand: demand, Profiles: profs}},
		{"negative demand", Problem{Top: top, App: app, Demand: gcpDemand(1000, -1, 1000, 100), Profiles: profs}},
		{"missing profile", Problem{Top: top, App: app, Demand: demand, Profiles: missing}},
		{"overload", Problem{Top: top, App: app, Demand: gcpDemand(1e7, 1e7, 1e7, 1e7), Profiles: profs}},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.p.Optimize(1)
			_, want := standaloneOptimize(&c.p, 1)
			if err == nil || want == nil || err.Error() != want.Error() {
				t.Fatalf("error %v, standalone %v", err, want)
			}
		})
	}
}

// TestOneShotAllocs pins the heap objects of one Problem.Optimize call,
// which builds a whole one-shard ShardedOptimizer to solve once: on
// fig6a at most 801 and on the GCP chain at most 1 785 (819 and 1 833
// while each pool had a load column and two rows; 1 389 and 3 099 while
// the LP stored row and column names). Lowering either is welcome;
// lower the pin with it.
func TestOneShotAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates more")
	}
	top, app := gcpScenario()
	demand := gcpDemand(1000, 100, 1000, 100)
	for _, c := range []struct {
		name string
		p    *Problem
		max  float64
	}{
		{"fig6a", oneShotProblems()["fig6a"], 801},
		{"gcp chain", &Problem{Top: top, App: app, Demand: demand, Profiles: DefaultProfiles(app, top, demand)}, 1785},
	} {
		n := testing.AllocsPerRun(20, func() {
			if _, err := c.p.Optimize(7); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v objects", c.name, n)
		if n > c.max {
			t.Errorf("%s: Problem.Optimize allocates %v objects, want at most %v", c.name, n, c.max)
		}
	}
}

// TestNonFiniteDemandIsAnError: a NaN or infinite demand entry is an
// error naming its class and cluster on every path a plan is made by,
// never a panic, and a warm optimizer given one neither skips the tick
// (an infinite fingerprint entry compares equal to any finite one)
// nor changes state.
func TestNonFiniteDemandIsAnError(t *testing.T) {
	top, app := gcpScenario()
	good := gcpDemand(1000, 100, 1000, 100)
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		demand := gcpDemand(bad, 100, 1000, 100)
		for _, path := range []struct {
			name  string
			solve func(*testing.T) error
		}{
			{"Problem.Optimize", func(*testing.T) error {
				_, err := (&Problem{Top: top, App: app, Demand: demand, Profiles: DefaultProfiles(app, top, good)}).Optimize(1)
				return err
			}},
			{"Controller.Prime", func(*testing.T) error {
				ctl, err := NewController(top, app, ControllerConfig{})
				if err != nil {
					return err
				}
				ctl.SetDemand(demand)
				_, err = ctl.Prime()
				return err
			}},
			{"warm ShardedOptimizer", func(t *testing.T) error {
				profs := DefaultProfiles(app, top, good)
				opt := NewShardedOptimizer(top, app, Config{}, 0)
				if _, err := opt.Optimize(good, profs, 1); err != nil {
					t.Fatal(err)
				}
				st := opt.Stats()
				_, err := opt.Optimize(demand, profs, 2)
				if after := opt.Stats(); after != st {
					t.Errorf("stats moved on a rejected tick: %+v, before %+v", after, st)
				}
				return err
			}},
		} {
			t.Run(fmt.Sprintf("%v/%s", bad, path.name), func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				err := path.solve(t)
				if err == nil {
					t.Fatal("no error")
				}
				if !strings.Contains(err.Error(), `"default"`) || !strings.Contains(err.Error(), string(topology.OR)) {
					t.Fatalf("error %q names no class and cluster", err)
				}
			})
		}
	}
}
