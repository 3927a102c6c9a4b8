package simrun

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/fault"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/sim"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
	"github.com/servicelayernetworking/slate/internal/workload"
)

// fourClusterScenario builds a 4-cluster mesh with a two-tier app (fe →
// worker, both everywhere) and arrivals at every cluster. The returned
// table splits each cluster's worker traffic 70% local / 30% to the
// next cluster, so every shard boundary carries real traffic.
func fourClusterScenario(seed int64) (Scenario, Policy) {
	ids := []topology.ClusterID{"a", "b", "c", "d"}
	b := topology.NewBuilder(0.05)
	for _, id := range ids {
		b.AddCluster(id, string(id))
	}
	rtts := []time.Duration{16, 20, 24, 28, 32, 36}
	k := 0
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			b.SetRTT(ids[i], ids[j], rtts[k]*time.Millisecond)
			k++
		}
	}
	top := b.MustBuild()

	pool := appgraph.ReplicaPool{Replicas: 2, Concurrency: 4}
	app := &appgraph.App{
		Name: "par",
		Services: map[appgraph.ServiceID]*appgraph.Service{
			"fe": {ID: "fe", Placement: appgraph.Uniform(appgraph.ReplicaPool{Replicas: 1, Concurrency: 64}, ids...)},
			"wk": {ID: "wk", Placement: appgraph.Uniform(pool, ids...)},
		},
		Classes: []*appgraph.Class{{Name: "c", Root: &appgraph.CallNode{
			Service: "fe", Method: "GET", Path: "/", Count: 1,
			Work: appgraph.Work{MeanServiceTime: 200 * time.Microsecond},
			Children: []*appgraph.CallNode{{
				Service: "wk", Method: "GET", Path: "/w", Count: 1,
				Work: appgraph.Work{MeanServiceTime: 4 * time.Millisecond, RequestBytes: 800, ResponseBytes: 4000},
			}},
		}}},
	}

	rules := map[routing.Key]routing.Distribution{}
	for i, id := range ids {
		next := ids[(i+1)%len(ids)]
		d, err := routing.NewDistribution(map[topology.ClusterID]float64{
			id: 0.7, next: 0.3,
		})
		if err != nil {
			panic(err)
		}
		rules[routing.Key{Service: "wk", Class: routing.AnyClass, Cluster: id}] = d
	}
	var specs []workload.Spec
	for _, id := range ids {
		specs = append(specs, workload.Steady("c", id, 40))
	}
	return Scenario{
		Name:     "four-cluster",
		Top:      top,
		App:      app,
		Workload: specs,
		Duration: 20 * time.Second,
		Warmup:   2 * time.Second,
		Seed:     seed,
	}, Static("split", routing.NewTable(1, rules))
}

// resultFingerprint folds everything determinism-relevant in a result
// into comparable form (samples included — bit-identical means
// bit-identical latencies, not just matching summaries).
func resultFingerprint(t *testing.T, r *Result) []interface{} {
	t.Helper()
	var samples []time.Duration
	for _, cl := range []string{"c"} {
		samples = append(samples, r.PerClass[cl].Samples...)
	}
	return []interface{}{
		r.Generated, r.Completed, r.Failed, r.Mean, r.P50, r.P99,
		r.EgressBytes, r.RemoteFraction, r.DegradedCalls, r.MissedTicks,
		r.Parallel.Messages, r.Parallel.Windows, samples,
	}
}

// TestParallelDeterminismAcrossGOMAXPROCS is the tentpole invariant:
// the sharded run is bit-identical at any core count. The CI
// determinism matrix re-runs this test at GOMAXPROCS=1,2,8.
func TestParallelDeterminismAcrossGOMAXPROCS(t *testing.T) {
	run := func(procs int) *Result {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		scn, pol := fourClusterScenario(11)
		res, err := RunParallel(scn, pol, ParallelOptions{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1)
	if base.Parallel.Shards != 4 {
		t.Fatalf("got %d shards, want 4", base.Parallel.Shards)
	}
	if base.Parallel.Messages == 0 {
		t.Fatal("no cross-shard messages; the test scenario is not exercising shard boundaries")
	}
	want := resultFingerprint(t, base)
	for _, procs := range []int{2, 8} {
		got := resultFingerprint(t, run(procs))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("GOMAXPROCS=%d result differs from GOMAXPROCS=1", procs)
		}
	}
}

func TestParallelDeterminismRepeatedRuns(t *testing.T) {
	scn, pol := fourClusterScenario(7)
	r1, err := RunParallel(scn, pol, ParallelOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	scn2, pol2 := fourClusterScenario(7)
	r2, err := RunParallel(scn2, pol2, ParallelOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resultFingerprint(t, r1), resultFingerprint(t, r2)) {
		t.Fatal("same seed and shard count produced different results")
	}
}

// TestShardCountsAgree pins the contract between shard counts. One and
// four shards draw routing picks from different streams (see the engine's
// package comment), so only a scenario whose routing is deterministic
// (single-target rules) makes identical routing decisions at both:
// there egress and the remote fraction must match exactly and the
// latency tightly (only same-timestamp event ordering can differ).
// Under weighted (randomized) routing only the statistics must agree.
// Arrivals come from the same named streams at any shard count, so
// Generated and Completed always match exactly.
func TestShardCountsAgree(t *testing.T) {
	scn, weighted := fourClusterScenario(9)
	allToA := map[routing.Key]routing.Distribution{}
	for _, id := range scn.Top.ClusterIDs() {
		allToA[routing.Key{Service: "wk", Class: routing.AnyClass, Cluster: id}] = routing.Local("a")
	}
	for _, tc := range []struct {
		name          string
		seed          int64
		pol           Policy
		exactRouting  bool
		meanTolerance float64
	}{
		{"deterministic routing", 5, Static("all-to-a", routing.NewTable(1, allToA)), true, 0.02},
		{"weighted routing", 9, weighted, false, 0.10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scn.Seed = tc.seed
			one, err := RunParallel(scn, tc.pol, ParallelOptions{Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			four, err := RunParallel(scn, tc.pol, ParallelOptions{Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			if one.Parallel.Shards != 1 || four.Parallel.Shards != 4 {
				t.Fatalf("ran on %d and %d shards, want 1 and 4", one.Parallel.Shards, four.Parallel.Shards)
			}
			if one.Generated != four.Generated {
				t.Fatalf("generated: 1 shard %d, 4 shards %d", one.Generated, four.Generated)
			}
			if one.Completed != four.Completed {
				t.Fatalf("completed: 1 shard %d, 4 shards %d", one.Completed, four.Completed)
			}
			if rel := math.Abs(one.Mean.Seconds()-four.Mean.Seconds()) / one.Mean.Seconds(); rel > tc.meanTolerance {
				t.Fatalf("mean latency diverged: 1 shard %v, 4 shards %v (rel %.3f)", one.Mean, four.Mean, rel)
			}
			if !tc.exactRouting {
				if math.Abs(one.RemoteFraction-four.RemoteFraction) > 0.03 {
					t.Fatalf("remote fraction diverged: 1 shard %v, 4 shards %v", one.RemoteFraction, four.RemoteFraction)
				}
				return
			}
			if one.EgressBytes != four.EgressBytes {
				t.Fatalf("egress: 1 shard %d, 4 shards %d", one.EgressBytes, four.EgressBytes)
			}
			if one.RemoteFraction != four.RemoteFraction { //slate:nolint floatcmp -- deterministic routing makes both shard counts compute the identical quotient
				t.Fatalf("remote fraction: 1 shard %v, 4 shards %v", one.RemoteFraction, four.RemoteFraction)
			}
		})
	}
}

// TestParallelPartitionProperties checks buildPartition: full coverage,
// bounded shard count, correct lookahead, and class coalescing when the
// app decomposes into independent cluster groups.
func TestParallelPartitionProperties(t *testing.T) {
	scn, _ := fourClusterScenario(1)
	p := buildPartition(&scn, 4)
	if len(p.owned) != 4 {
		t.Fatalf("got %d shards, want 4", len(p.owned))
	}
	seen := map[topology.ClusterID]bool{}
	for s, cs := range p.owned {
		for _, c := range cs {
			if p.shardOf[c] != s {
				t.Fatalf("cluster %s owned by shard %d but mapped to %d", c, s, p.shardOf[c])
			}
			seen[c] = true
		}
	}
	if len(seen) != 4 {
		t.Fatalf("partition covers %d clusters, want 4", len(seen))
	}
	// Min cross-shard one-way delay: all clusters in distinct shards, so
	// it is the global min RTT/2 = 8ms.
	if p.lookahead != 8*time.Millisecond {
		t.Fatalf("lookahead %v, want 8ms", p.lookahead)
	}
	// Requesting more shards than clusters caps at the cluster count.
	p = buildPartition(&scn, 64)
	if len(p.owned) != 4 {
		t.Fatalf("got %d shards for want=64, want 4", len(p.owned))
	}
	p = buildPartition(&scn, 1)
	if len(p.owned) != 1 {
		t.Fatalf("got %d shards for want=1, want 1", len(p.owned))
	}
}

// TestParallelCoalescesCoupledClusters: when classes form independent
// cluster groups and fewer shards are requested than clusters, coupled
// clusters land in the same shard (no cross-shard messages at all).
func TestParallelCoalescesCoupledClusters(t *testing.T) {
	ids := []topology.ClusterID{"a", "b", "c", "d"}
	b := topology.NewBuilder(0)
	for _, id := range ids {
		b.AddCluster(id, string(id))
	}
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			b.SetRTT(ids[i], ids[j], 20*time.Millisecond)
		}
	}
	top := b.MustBuild()
	pool := appgraph.ReplicaPool{Replicas: 1, Concurrency: 8}
	// fe everywhere (shared frontend requirement); workers pair up the
	// clusters: w1 in {a, b}, w2 in {c, d}.
	app := &appgraph.App{
		Name: "paired",
		Services: map[appgraph.ServiceID]*appgraph.Service{
			"fe": {ID: "fe", Placement: appgraph.Uniform(appgraph.ReplicaPool{Replicas: 1, Concurrency: 64}, ids...)},
			"w1": {ID: "w1", Placement: appgraph.Uniform(pool, "a", "b")},
			"w2": {ID: "w2", Placement: appgraph.Uniform(pool, "c", "d")},
		},
		Classes: []*appgraph.Class{
			{Name: "c1", Root: &appgraph.CallNode{
				Service: "fe", Method: "GET", Path: "/1", Count: 1,
				Work:     appgraph.Work{MeanServiceTime: 100 * time.Microsecond},
				Children: []*appgraph.CallNode{{Service: "w1", Method: "GET", Path: "/w", Count: 1, Work: appgraph.Work{MeanServiceTime: time.Millisecond}}},
			}},
			{Name: "c2", Root: &appgraph.CallNode{
				Service: "fe", Method: "GET", Path: "/2", Count: 1,
				Work:     appgraph.Work{MeanServiceTime: 100 * time.Microsecond},
				Children: []*appgraph.CallNode{{Service: "w2", Method: "GET", Path: "/w", Count: 1, Work: appgraph.Work{MeanServiceTime: time.Millisecond}}},
			}},
		},
	}
	scn := Scenario{
		Name: "paired", Top: top, App: app,
		Workload: []workload.Spec{
			workload.Steady("c1", "a", 20), workload.Steady("c1", "b", 20),
			workload.Steady("c2", "c", 20), workload.Steady("c2", "d", 20),
		},
		Duration: 5 * time.Second, Warmup: time.Second, Seed: 3,
	}
	p := buildPartition(&scn, 2)
	if len(p.owned) != 2 {
		t.Fatalf("got %d shards, want 2", len(p.owned))
	}
	if p.shardOf["a"] != p.shardOf["b"] || p.shardOf["c"] != p.shardOf["d"] || p.shardOf["a"] == p.shardOf["c"] {
		t.Fatalf("coupled clusters split across shards: %v", p.shardOf)
	}
	// With a local-only table the class groups never talk across the
	// boundary: zero cross-shard messages.
	res, err := RunParallel(scn, Static("local", routing.EmptyTable()), ParallelOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Parallel.Messages != 0 {
		t.Fatalf("expected zero cross-shard messages for decoupled groups, got %d", res.Parallel.Messages)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
}

// TestParallelFaultsAndDegradation: partitions and rule-TTL degradation
// behave at any shard count and stay deterministic.
func TestParallelFaultsAndDegradation(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testFaultsAndDegradation(t, shards)
		})
	}
}

func testFaultsAndDegradation(t *testing.T, shards int) {
	run := func() *Result {
		scn, pol := fourClusterScenario(13)
		scn.ControlPeriod = time.Second
		scn.RuleTTL = 1500 * time.Millisecond
		// Partition while rules are still fresh (cross-cluster routing
		// active); the outage later pushes rules past the TTL so calls
		// degrade to local — both failure modes in one run.
		scn.Faults = fault.NewSchedule().
			Outage(fault.Global, 10*time.Second, 8*time.Second).
			Partition("a", "b", 3*time.Second, 3*time.Second)
		res, err := RunParallel(scn, pol, ParallelOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := run()
	if r1.MissedTicks == 0 {
		t.Error("global outage missed no ticks")
	}
	if r1.DegradedCalls == 0 {
		t.Error("rule TTL expired but no calls degraded")
	}
	if r1.Failed == 0 || r1.Availability >= 1 {
		t.Errorf("partition produced no failures (failed=%d, availability=%v)", r1.Failed, r1.Availability)
	}
	r2 := run()
	if !reflect.DeepEqual(resultFingerprint(t, r1), resultFingerprint(t, r2)) {
		t.Fatal("faulted run is not reproducible")
	}
}

// TestParallelDynamics: a scheduled pool shrink must degrade latency at
// any shard count, and Dynamics must validate.
func TestParallelDynamics(t *testing.T) {
	// Hot enough that halving wk@a (8 → 4 servers at ~700 rps, ρ 0.35 →
	// 0.7) visibly queues.
	hot := func() Scenario {
		s, _ := fourClusterScenario(17)
		for i := range s.Workload {
			s.Workload[i].Phases = []workload.Phase{{RPS: 700}}
		}
		s.Duration = 10 * time.Second
		return s
	}
	_, pol := fourClusterScenario(17)
	base := hot()
	shrunk := hot()
	shrunk.Dynamics = []PoolEvent{
		{At: 4 * time.Second, Service: "wk", Cluster: "a", Replicas: 1},
	}
	for _, shards := range []int{1, 4} {
		rBase, err := RunParallel(base, pol, ParallelOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		rShrunk, err := RunParallel(shrunk, pol, ParallelOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if rShrunk.Mean <= rBase.Mean {
			t.Errorf("%d shards: halving wk@a capacity did not raise mean latency (%v <= %v)",
				shards, rShrunk.Mean, rBase.Mean)
		}
	}

	bad := base
	bad.Dynamics = []PoolEvent{{At: time.Second, Service: "ghost", Cluster: "a", Replicas: 1}}
	if err := bad.Validate(); err == nil {
		t.Error("dynamics referencing unknown service validated")
	}
	bad.Dynamics = []PoolEvent{{At: time.Second, Service: "wk", Cluster: "a", Replicas: 0}}
	if err := bad.Validate(); err == nil {
		t.Error("dynamics with zero replicas validated")
	}
}

// TestParallelSpanExport: spans from four shards come out as one dump
// in (End, shard, sequence) order — also when control barriers drain the
// shard buffers piecemeal — with parents resolvable across shard
// boundaries.
func TestParallelSpanExport(t *testing.T) {
	for _, period := range []time.Duration{0, time.Second} {
		scn, pol := fourClusterScenario(21)
		scn.Duration = 6 * time.Second
		scn.ControlPeriod = period
		sink := &memSink{}
		scn.SpanSink = sink
		res, err := RunParallel(scn, pol, ParallelOptions{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(sink.spans) == 0 {
			t.Fatal("no spans exported")
		}
		// IDs carry the minting shard in their high bits; shard 0's are the
		// bare sequence.
		shardOf := func(sp telemetry.Span) uint64 { return uint64(sp.ID) >> 48 }
		minted := map[uint64]bool{}
		for i, sp := range sink.spans {
			minted[shardOf(sp)] = true
			if i == 0 {
				continue
			}
			prev := sink.spans[i-1]
			if sp.End < prev.End || (sp.End == prev.End && shardOf(sp) < shardOf(prev)) {
				t.Fatalf("control period %v: span %d (end %v, shard %d) exported after span (end %v, shard %d)",
					period, i, sp.End, shardOf(sp), prev.End, shardOf(prev))
			}
		}
		if len(minted) != 4 || !minted[0] {
			t.Fatalf("spans minted by shards %v, want 0..3", minted)
		}
		// Parents exist for every non-root span, across shard boundaries.
		ids := map[uint64]bool{}
		for _, sp := range sink.spans {
			if ids[uint64(sp.ID)] {
				t.Fatalf("span ID %d minted twice", sp.ID)
			}
			ids[uint64(sp.ID)] = true
		}
		for _, sp := range sink.spans {
			if sp.Parent != 0 && !ids[uint64(sp.Parent)] {
				t.Fatalf("span %d has unknown parent %d", sp.ID, sp.Parent)
			}
		}
		// 2 spans per completed request (fe + wk).
		if got, want := uint64(len(sink.spans)), 2*res.Completed; got != want {
			t.Fatalf("exported %d spans for %d completions, want %d", got, res.Completed, want)
		}
	}
}

// TestParallelControlLoopConverges: a live policy tick at barriers
// produces a timeline and tables that actually route (smoke test that
// the coordinator's barrier tick wiring works end to end).
func TestParallelControlLoopConverges(t *testing.T) {
	scn, pol := fourClusterScenario(23)
	scn.ControlPeriod = time.Second
	res, err := RunParallel(scn, pol, ParallelOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) < 10 {
		t.Fatalf("timeline has %d points, want >= 10", len(res.Timeline))
	}
	if res.Parallel.Windows == 0 {
		t.Fatal("no synchronization windows ran")
	}
}

// TestOneShardOneWindowPerBarrier: with no cluster pair across a shard
// boundary the lookahead is unbounded, so a one-shard run needs one
// window per control barrier plus the final drain, and sends nothing.
func TestOneShardOneWindowPerBarrier(t *testing.T) {
	scn, pol := fourClusterScenario(23)
	scn.ControlPeriod = time.Second
	res, err := Run(scn, pol)
	if err != nil {
		t.Fatal(err)
	}
	ps := res.Parallel
	if ps.Shards != 1 || ps.Messages != 0 {
		t.Fatalf("Run used %d shards and sent %d messages, want 1 and 0", ps.Shards, ps.Messages)
	}
	if ps.Lookahead != time.Duration(sim.MaxTime) {
		t.Fatalf("one-shard lookahead %v, want unbounded", ps.Lookahead)
	}
	ticks := uint64(scn.Duration / scn.ControlPeriod)
	if ps.Windows == 0 || ps.Windows > ticks+2 {
		t.Fatalf("%d windows for %d control ticks, want at most ticks+2", ps.Windows, ticks)
	}
	if ps.Events == 0 || len(res.Timeline) < 10 {
		t.Fatalf("run did no work: %d events, %d timeline points", ps.Events, len(res.Timeline))
	}
}
