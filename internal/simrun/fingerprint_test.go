package simrun_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/fault"
	"github.com/servicelayernetworking/slate/internal/obs"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/scenario"
	"github.com/servicelayernetworking/slate/internal/simrun"
	"github.com/servicelayernetworking/slate/internal/topology"
	"github.com/servicelayernetworking/slate/internal/workload"
)

// fingerprint hashes everything a run reports: every per-class sample,
// all counters, the timeline, per-cluster local-served rates, scale
// events and final replicas. dump, when non-nil, is the JSONL span dump
// of the same run and is hashed byte for byte. parallel adds the engine's
// own counters: events fired, windows run, cross-shard messages sent.
func fingerprint(r *simrun.Result, dump []byte, parallel bool) uint64 {
	h := fnv.New64a()
	bits := math.Float64bits
	classes := make([]string, 0, len(r.PerClass))
	for name := range r.PerClass {
		classes = append(classes, name)
	}
	sort.Strings(classes)
	for _, name := range classes {
		cr := r.PerClass[name]
		fmt.Fprintf(h, "class %s %d %d %d %d %v\n", name, cr.Completed, cr.Mean, cr.P50, cr.P99, cr.Samples)
	}
	fmt.Fprintf(h, "run %d %d %d %d %d %d %d %x %d %d %x %d %x %d %d\n",
		r.Generated, r.Completed, r.Failed, r.Mean, r.P50, r.P99,
		r.EgressBytes, bits(r.EgressCost), r.MeasuredWindow, r.PolicyErrors,
		bits(r.RemoteFraction), r.MissedTicks, bits(r.Availability), r.DegradedCalls, len(r.Timeline))
	for _, p := range r.Timeline {
		fmt.Fprintf(h, "timeline %d %d %x\n", p.At, p.Mean, bits(p.RPS))
	}
	clusters := make([]string, 0, len(r.LocalServedRPS))
	for c := range r.LocalServedRPS {
		clusters = append(clusters, string(c))
	}
	sort.Strings(clusters)
	for _, c := range clusters {
		fmt.Fprintf(h, "local %s %x\n", c, bits(r.LocalServedRPS[topology.ClusterID(c)]))
	}
	// In (At, Service, Cluster) order, which TestScaleEventsOrderStable
	// pins; the constants below were recorded with the events so sorted.
	for _, e := range r.ScaleEvents {
		fmt.Fprintf(h, "scale %d %s %s %d\n", e.At, e.Pool.Service, e.Pool.Cluster, e.Replicas)
	}
	pools := make([]core.PoolKey, 0, len(r.FinalReplicas))
	for key := range r.FinalReplicas {
		pools = append(pools, key)
	}
	sort.Slice(pools, func(i, j int) bool {
		if pools[i].Service != pools[j].Service {
			return pools[i].Service < pools[j].Service
		}
		return pools[i].Cluster < pools[j].Cluster
	})
	for _, key := range pools {
		fmt.Fprintf(h, "final %s %s %d\n", key.Service, key.Cluster, r.FinalReplicas[key])
	}
	fmt.Fprintf(h, "spans %d\n", len(dump))
	h.Write(dump)
	if ps := r.Parallel; parallel {
		fmt.Fprintf(h, "parallel %d %d %d\n", ps.Events, ps.Windows, ps.Messages)
	}
	return h.Sum64()
}

// TestRunFingerprintsPinned holds Run to the results of the serial
// executor it replaced. The constants were recorded at commit 397f956
// from that executor, on scenarios that together use every Scenario
// feature; a one-shard run of the sharded engine must reproduce each of
// them bit for bit, the span dump included. gen16 was re-recorded at
// 17d281c when the DES's wire accounting (and its line of the hash) was
// deleted: the same run, hashed without that line. ties was recorded at
// de3a4ef, where every network hop was an event of its own in the heap:
// it holds the links' reserved sequence numbers, which no other case
// does, because only there do hops tie to the nanosecond.
//
// The legs with shards > 0 hold RunParallel at that shard count the same
// way, with ParallelStats.{Events, Windows, Messages} added to the hash:
// cross-shard calls, their responses and the barrier exchange. They were
// recorded at ee9658c, before the per-event path was rebuilt on typed
// events and frame arenas.
func TestRunFingerprintsPinned(t *testing.T) {
	top := topology.TwoClusters(40 * time.Millisecond)
	chain := func() *appgraph.App {
		return appgraph.LinearChain(appgraph.ChainOptions{
			Services:        3,
			MeanServiceTime: 10 * time.Millisecond,
			Pool:            appgraph.ReplicaPool{Replicas: 2, Concurrency: 4},
			Clusters:        []topology.ClusterID{topology.West, topology.East},
		})
	}
	slate := func(app *appgraph.App, cfg core.ControllerConfig, demand core.Demand) simrun.Policy {
		ctrl, err := core.NewController(top, app, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if demand != nil {
			ctrl.SetDemand(demand)
		}
		return simrun.SLATE(ctrl, demand != nil)
	}

	// Global and cluster-controller outages, a partition, rule TTL
	// degradation and span export (the chaos experiment).
	chaos := func(sink simrun.SpanSink) (simrun.Scenario, simrun.Policy) {
		app := chain()
		demand := core.Demand{"default": {topology.West: 900, topology.East: 100}}
		return simrun.Scenario{
			Name: "pin-chaos", Top: top, App: app,
			Workload: []workload.Spec{
				workload.Steady("default", topology.West, 900),
				workload.Steady("default", topology.East, 100),
			},
			Duration: 14 * time.Second, Warmup: 2 * time.Second,
			ControlPeriod: time.Second, Seed: 5,
			RuleTTL: 2500 * time.Millisecond,
			Faults: fault.NewSchedule().
				Outage(fault.Global, 5*time.Second, 5*time.Second).
				Outage(fault.ClusterTarget(topology.East), 2*time.Second, 2*time.Second).
				Partition(topology.West, topology.East, 3*time.Second, 3*time.Second),
			SpanSink: sink,
		}, slate(app, core.ControllerConfig{Decompose: true}, demand)
	}
	// Generated 16-cluster scenario: heavy tails, churn, hotspots, retry
	// storms on a static locality table.
	gen16 := func(simrun.SpanSink) (simrun.Scenario, simrun.Policy) {
		g, err := scenario.Generate(scenario.GenSpec{
			Seed: 23, Clusters: 16, Regions: 4, Services: 48, Classes: 8,
			TailAlpha: 1.8, TotalRPS: 1200, RemoteFraction: 0.12,
			ChurnEvents: 6, HotspotClasses: 2, StormClasses: 2,
			Duration: 3 * time.Second, Warmup: 500 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		scn := g.Scenario("pin-gen16")
		scn.ControlPeriod = 500 * time.Millisecond
		return scn, g.Policy()
	}
	// Constant arrivals, fixed service times and whole-millisecond delays
	// on three clusters: hops land on the same nanosecond as arrivals,
	// completions and other hops, and which fires first decides the pick
	// order and the pools' queue order.
	ties := func(simrun.SpanSink) (simrun.Scenario, simrun.Policy) {
		ids := []topology.ClusterID{"a", "b", "c"}
		b := topology.NewBuilder(0.05)
		for _, id := range ids {
			b.AddCluster(id, string(id))
		}
		b.SetRTT("a", "b", 4*time.Millisecond)
		b.SetRTT("a", "c", 6*time.Millisecond)
		b.SetRTT("b", "c", 4*time.Millisecond)
		fixed := func(svc appgraph.ServiceID, d time.Duration) *appgraph.CallNode {
			return &appgraph.CallNode{Service: svc, Method: "GET", Path: "/", Count: 1,
				Work: appgraph.Work{MeanServiceTime: d, Dist: appgraph.DistDeterministic}}
		}
		root := fixed("fe", time.Millisecond)
		root.Parallel = true
		root.Children = []*appgraph.CallNode{fixed("wk", 2*time.Millisecond), fixed("db", time.Millisecond)}
		pool := appgraph.ReplicaPool{Replicas: 1, Concurrency: 2}
		app := &appgraph.App{
			Name: "ties",
			Services: map[appgraph.ServiceID]*appgraph.Service{
				"fe": {ID: "fe", Placement: appgraph.Uniform(appgraph.ReplicaPool{Replicas: 1, Concurrency: 64}, ids...)},
				"wk": {ID: "wk", Placement: appgraph.Uniform(pool, ids...)},
				"db": {ID: "db", Placement: appgraph.Uniform(pool, ids...)},
			},
			Classes: []*appgraph.Class{{Name: "c", Root: root}},
		}
		rules := map[routing.Key]routing.Distribution{}
		var specs []workload.Spec
		for i, id := range ids {
			d, err := routing.NewDistribution(map[topology.ClusterID]float64{
				id: 0.4, ids[(i+1)%3]: 0.3, ids[(i+2)%3]: 0.3,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, svc := range []string{"wk", "db"} {
				rules[routing.Key{Service: svc, Class: routing.AnyClass, Cluster: id}] = d
			}
			specs = append(specs, workload.Spec{Class: "c", Cluster: id, Process: workload.Constant,
				Phases: []workload.Phase{{RPS: 500}}})
		}
		return simrun.Scenario{
			Name: "pin-ties", Top: b.MustBuild(), App: app, Workload: specs,
			Duration: 4 * time.Second, Warmup: 500 * time.Millisecond, Seed: 3,
		}, simrun.Static("ties", routing.NewTable(1, rules))
	}

	cases := []struct {
		name   string
		build  func(sink simrun.SpanSink) (simrun.Scenario, simrun.Policy)
		spans  bool
		shards int // 0: one shard, what Run executes; else that many, stats hashed
		want   uint64
	}{
		{
			// Weighted SLATE tables refreshed by the control loop
			// (fig6a's overload, converging from all-local).
			name: "control-loop",
			build: func(simrun.SpanSink) (simrun.Scenario, simrun.Policy) {
				app := chain()
				return simrun.Scenario{
					Name: "pin-control-loop", Top: top, App: app,
					Workload: []workload.Spec{
						workload.Steady("default", topology.West, 900),
						workload.Steady("default", topology.East, 100),
					},
					Duration: 12 * time.Second, Warmup: 2 * time.Second,
					ControlPeriod: 2 * time.Second, Seed: 11,
				}, slate(app, core.ControllerConfig{DemandSmoothing: 0.7}, nil)
			},
			want: 0x0a3781713de96b11,
		},
		{name: "chaos", build: chaos, spans: true, want: 0x4946936f1c1676a1},
		{
			// HPA scaling of eight pools through a burst, under SLATE.
			name: "autoscaler",
			build: func(simrun.SpanSink) (simrun.Scenario, simrun.Policy) {
				app := chain()
				return simrun.Scenario{
					Name: "pin-autoscaler", Top: top, App: app,
					Workload: []workload.Spec{
						workload.Burst("default", topology.West, 300, 850, 4*time.Second, 10*time.Second),
						workload.Steady("default", topology.East, 100),
					},
					Duration: 24 * time.Second, Warmup: 2 * time.Second,
					ControlPeriod: 2 * time.Second, Seed: 41,
					Autoscaler: &simrun.AutoscalerConfig{
						Period: 2 * time.Second, TargetUtilization: 0.7,
						ReactionDelay: 3 * time.Second, MaxReplicas: 12,
						DownscaleStabilization: 4 * time.Second,
					},
				}, slate(app, core.ControllerConfig{DemandSmoothing: 0.7, LearnProfiles: true}, nil)
			},
			want: 0xa57f88728f9673bd,
		},
		{name: "gen16", build: gen16, want: 0x8ca06cdc2c894f2a},
		{name: "ties", build: ties, want: 0x7c8cae7f0b52f470},
		{name: "chaos-2shards", build: chaos, spans: true, shards: 2, want: 0xc49132b1786f09ab},
		{name: "gen16-2shards", build: gen16, shards: 2, want: 0x500e67f49c48ba95},
		{name: "gen16-4shards", build: gen16, shards: 4, want: 0x25bcb45c193e20b0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			var sink simrun.SpanSink
			if tc.spans {
				sink = obs.NewSpanWriter(&buf)
			}
			scn, pol := tc.build(sink)
			res, err := simrun.RunParallel(scn, pol, simrun.ParallelOptions{Shards: max(tc.shards, 1)})
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed == 0 {
				t.Fatal("nothing completed")
			}
			if tc.spans && buf.Len() == 0 {
				t.Fatal("no spans exported")
			}
			if ps := res.Parallel; tc.shards > 0 && (ps.Shards != tc.shards || ps.Messages == 0) {
				t.Fatalf("ran on %d shards with %d messages, want %d shards exchanging messages", ps.Shards, ps.Messages, tc.shards)
			}
			if got := fingerprint(res, buf.Bytes(), tc.shards > 0); got != tc.want {
				t.Errorf("fingerprint %#x, want %#x: the engine no longer reproduces the recorded result", got, tc.want)
			}
		})
	}
}
