package scenario

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/simrun"
)

var update = flag.Bool("update", false, "rewrite golden fixtures")

// genDigest is a compact, deterministic summary of a Generated bundle.
// The golden test pins one for a 100-cluster/1000-service spec so any
// unintended change to the generator's output is caught.
type genDigest struct {
	Clusters     int     `json:"clusters"`
	Services     int     `json:"services"` // incl. ingress
	Classes      int     `json:"classes"`
	CallNodes    int     `json:"call_nodes"`
	Rules        int     `json:"rules"`
	Workload     int     `json:"workload_specs"`
	Dynamics     int     `json:"dynamics"`
	BaseRPS      float64 `json:"base_rps"` // sum of first-phase rates
	TopologyHash uint64  `json:"topology_hash"`
	AppHash      uint64  `json:"app_hash"`
	TableHash    uint64  `json:"table_hash"`
	WorkloadHash uint64  `json:"workload_hash"`
	DynamicsHash uint64  `json:"dynamics_hash"`
}

func digest(g *Generated) genDigest {
	d := genDigest{
		Clusters: len(g.Top.ClusterIDs()),
		Services: len(g.App.Services),
		Classes:  len(g.App.Classes),
		Rules:    g.Table.Len(),
		Workload: len(g.Workload),
		Dynamics: len(g.Dynamics),
	}
	topo := fnv.New64a()
	ids := g.Top.ClusterIDs()
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			fmt.Fprintf(topo, "%s-%s:%d;", a, b, g.Top.RTT(a, b))
		}
	}
	d.TopologyHash = topo.Sum64()

	app := fnv.New64a()
	var sids []string
	for id := range g.App.Services {
		sids = append(sids, string(id))
	}
	sort.Strings(sids)
	for _, id := range sids {
		svc := g.App.Services[appgraph.ServiceID(id)]
		for _, c := range svc.Clusters(g.Top) {
			p := svc.Placement[c]
			fmt.Fprintf(app, "%s@%s:%dx%d;", id, c, p.Replicas, p.Concurrency)
		}
	}
	for _, cl := range g.App.Classes {
		cl.Root.Walk(func(n *appgraph.CallNode) {
			d.CallNodes++
			fmt.Fprintf(app, "%s/%s:%d:%v:%d:%s:%.3f:%d:%d;", cl.Name, n.Service,
				n.Count, n.Parallel, n.Work.MeanServiceTime, n.Work.Dist,
				n.Work.TailAlpha, n.Work.RequestBytes, n.Work.ResponseBytes)
		})
	}
	d.AppHash = app.Sum64()

	tab := fnv.New64a()
	keys := g.Table.Keys()
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Service != b.Service {
			return a.Service < b.Service
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		return a.Cluster < b.Cluster
	})
	for _, k := range keys {
		dist, _ := g.Table.Get(k)
		fmt.Fprintf(tab, "%s=", k)
		for _, c := range dist.Clusters() {
			fmt.Fprintf(tab, "%s:%.6f,", c, dist.Weight(c))
		}
	}
	d.TableHash = tab.Sum64()

	wl := fnv.New64a()
	for _, spec := range g.Workload {
		fmt.Fprintf(wl, "%s@%s:", spec.Class, spec.Cluster)
		for _, ph := range spec.Phases {
			fmt.Fprintf(wl, "%.4f/%d,", ph.RPS, ph.Duration)
		}
		if len(spec.Phases) > 0 {
			d.BaseRPS += spec.Phases[0].RPS
		}
	}
	d.BaseRPS = math.Round(d.BaseRPS*100) / 100
	d.WorkloadHash = wl.Sum64()

	dyn := fnv.New64a()
	for _, ev := range g.Dynamics {
		fmt.Fprintf(dyn, "%d:%s@%s:%d;", ev.At, ev.Service, ev.Cluster, ev.Replicas)
	}
	d.DynamicsHash = dyn.Sum64()
	return d
}

func TestGenerateStablePerSeed(t *testing.T) {
	spec := GenSpec{Seed: 11, Clusters: 12, Services: 60, Classes: 10,
		ChurnEvents: 6, HotspotClasses: 2, StormClasses: 2, TailAlpha: 1.7}
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if da, db := digest(a), digest(b); !reflect.DeepEqual(da, db) {
		t.Errorf("same spec generated different scenarios:\n%+v\n%+v", da, db)
	}
	spec.Seed = 12
	c, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if da, dc := digest(a), digest(c); da.AppHash == dc.AppHash && da.TopologyHash == dc.TopologyHash {
		t.Error("different seeds generated identical scenarios")
	}
}

func TestGenerateTreeProperties(t *testing.T) {
	spec := GenSpec{Seed: 3, Clusters: 10, Services: 80, Classes: 12,
		FanoutMean: 2, MaxFanout: 3}
	g, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.App.Validate(g.Top); err != nil {
		t.Fatalf("generated app invalid: %v", err)
	}
	used := map[appgraph.ServiceID]int{}
	for _, cl := range g.App.Classes {
		if cl.Root.Service != IngressService {
			t.Fatalf("class %s roots at %s, want %s", cl.Name, cl.Root.Service, IngressService)
		}
		cl.Root.Walk(func(n *appgraph.CallNode) {
			if len(n.Children) > spec.MaxFanout {
				t.Errorf("class %s node %s has fan-out %d > MaxFanout %d",
					cl.Name, n.Service, len(n.Children), spec.MaxFanout)
			}
			if n.Service != IngressService {
				used[n.Service]++
			}
		})
	}
	// Acyclic and connected: the generator partitions services across
	// classes, so every generated service appears in exactly one tree,
	// exactly once — no service can be its own (transitive) ancestor.
	if len(used) != spec.Services {
		t.Errorf("trees reference %d distinct services, want all %d", len(used), spec.Services)
	}
	for sid, n := range used {
		if n != 1 {
			t.Errorf("service %s appears %d times across trees, want exactly 1", sid, n)
		}
	}
}

func TestGenerateHeavyTail(t *testing.T) {
	g, err := Generate(GenSpec{Seed: 5, Clusters: 6, Services: 30, Classes: 5, TailAlpha: 1.6})
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range g.App.Classes {
		cl.Root.Walk(func(n *appgraph.CallNode) {
			if n.Service == IngressService {
				return
			}
			if n.Work.Dist != appgraph.DistPareto || n.Work.TailAlpha != 1.6 { //slate:nolint floatcmp -- TailAlpha is copied verbatim from the spec, never computed
				t.Errorf("node %s: dist=%v alpha=%v, want pareto/1.6", n.Service, n.Work.Dist, n.Work.TailAlpha)
			}
		})
	}
	exp, err := Generate(GenSpec{Seed: 5, Clusters: 6, Services: 30, Classes: 5})
	if err != nil {
		t.Fatal(err)
	}
	exp.App.Classes[0].Root.Walk(func(n *appgraph.CallNode) {
		if n.Work.Dist == appgraph.DistPareto {
			t.Errorf("TailAlpha=0 produced a Pareto node at %s", n.Service)
		}
	})
}

func TestGenerateLocalityTable(t *testing.T) {
	const rf = 0.2
	g, err := Generate(GenSpec{Seed: 9, Clusters: 10, Services: 50, Classes: 8,
		Spread: 3, RemoteFraction: rf})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Table.Validate(g.Top); err != nil {
		t.Fatalf("generated table invalid: %v", err)
	}
	for _, k := range g.Table.Keys() {
		dist, _ := g.Table.Get(k)
		svc := g.App.Services[appgraph.ServiceID(k.Service)]
		sum := 0.0
		for _, c := range dist.Clusters() {
			if !svc.PlacedIn(c) {
				t.Fatalf("rule %s routes to %s where %s is not placed", k, c, k.Service)
			}
			sum += dist.Weight(c)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("rule %s weights sum to %v", k, sum)
		}
		if svc.PlacedIn(k.Cluster) {
			want := 1 - rf
			if len(dist.Clusters()) == 1 {
				want = 1
			}
			if got := dist.Weight(k.Cluster); math.Abs(got-want) > 1e-9 {
				t.Fatalf("rule %s keeps %.3f local, want %.3f", k, got, want)
			}
		}
	}
}

func TestGenerateWorkloadRates(t *testing.T) {
	const total = 5000.0
	g, err := Generate(GenSpec{Seed: 21, Clusters: 12, Services: 60, Classes: 10,
		TotalRPS: total, HotspotClasses: 3, StormClasses: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Per-class totals must sum to TotalRPS in every phase index 0:
	// hotspot phases redistribute (boost one cluster, cool the rest)
	// but conserve the class total; storms only raise later phases.
	sum := 0.0
	for _, spec := range g.Workload {
		sum += spec.Phases[0].RPS
	}
	if math.Abs(sum-total)/total > 0.01 {
		t.Errorf("first-phase offered load %.1f RPS, want ~%.0f", sum, total)
	}
	hotspots, storms := 0, 0
	for _, spec := range g.Workload {
		if len(spec.Phases) > 2 {
			hotspots++
		} else if len(spec.Phases) == 3 {
			storms++
		}
	}
	if hotspots == 0 {
		t.Error("no hotspot phase schedules generated")
	}
}

func TestGenerateDynamicsValid(t *testing.T) {
	spec := GenSpec{Seed: 2, Clusters: 8, Services: 40, Classes: 6, ChurnEvents: 12}
	g, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Dynamics) != spec.ChurnEvents {
		t.Fatalf("generated %d churn events, want %d", len(g.Dynamics), spec.ChurnEvents)
	}
	scn := g.Scenario("churn")
	if err := scn.Validate(); err != nil {
		t.Fatalf("scenario with churn invalid: %v", err)
	}
	for _, ev := range g.Dynamics {
		if ev.At < g.Spec.Warmup || ev.At > g.Spec.Duration {
			t.Errorf("churn event at %v outside (%v, %v)", ev.At, g.Spec.Warmup, g.Spec.Duration)
		}
	}
}

// TestGenerateRunsUnderSimrun is the end-to-end property: a generated
// scenario runs on the simulation engine at one shard and at four, with
// the same arrivals, and each shard count is reproducible.
func TestGenerateRunsUnderSimrun(t *testing.T) {
	g, err := Generate(GenSpec{Seed: 17, Clusters: 8, Services: 32, Classes: 6,
		TotalRPS: 300, TailAlpha: 1.8, ChurnEvents: 4, HotspotClasses: 1, StormClasses: 1,
		Duration: 6 * time.Second, Warmup: 1 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	scn := g.Scenario("gen-e2e")
	var generated uint64
	for _, shards := range []int{1, 4} {
		opt := simrun.ParallelOptions{Shards: shards}
		res, err := simrun.RunParallel(scn, g.Policy(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed == 0 || res.Availability < 0.99 {
			t.Fatalf("%d shards: completed=%d availability=%v", shards, res.Completed, res.Availability)
		}
		if res.Parallel.Shards != shards {
			t.Errorf("ran on %d shards, want %d", res.Parallel.Shards, shards)
		}
		if generated == 0 {
			generated = res.Generated
		}
		if res.Generated != generated {
			t.Errorf("%d shards generated %d requests, one shard %d", shards, res.Generated, generated)
		}
		again, err := simrun.RunParallel(scn, g.Policy(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != again.Completed || res.Mean != again.Mean {
			t.Errorf("%d shards: run not reproducible: %d/%v vs %d/%v",
				shards, res.Completed, res.Mean, again.Completed, again.Mean)
		}
	}
}

// TestGenerateGolden100 pins the full digest of the planet-scale
// reference spec: 100 clusters, 1000 services, 125 classes. Regenerate
// with `go test ./internal/scenario/ -run Golden -update` after an
// intentional generator change.
func TestGenerateGolden100(t *testing.T) {
	g, err := Generate(Gen100Spec())
	if err != nil {
		t.Fatal(err)
	}
	got := digest(g)
	if got.Clusters != 100 || got.Services != 1001 || got.Classes != 125 {
		t.Fatalf("reference spec materialized %d clusters / %d services / %d classes",
			got.Clusters, got.Services, got.Classes)
	}
	path := filepath.Join("testdata", "gen100.golden.json")
	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update): %v", err)
	}
	var want genDigest
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("100-cluster digest drifted from golden fixture:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestGenerateRejectsNothing(t *testing.T) {
	// The zero spec must default to something valid.
	g, err := Generate(GenSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Top.ClusterIDs()) == 0 || len(g.App.Classes) == 0 {
		t.Error("zero spec generated an empty scenario")
	}
}
