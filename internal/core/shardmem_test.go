package core_test

import (
	"runtime"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/scenario"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// TestShardBuildRetains pins what a cold build of the planner's shards
// keeps on the heap, on the deployment the ctrl-churn benchmark plans:
// 48 clusters, 96 services, 24 classes, so 24 shards of 984 columns and
// 300 rows. A formulation holds numbers only; a string formatted per row
// or column would add ≈ 1 300 objects and tens of kB a shard.
func TestShardBuildRetains(t *testing.T) {
	g, demand := ctrlChurnDeployment(t)
	build := core.ShardBuilds(g.Top, g.App, core.Config{}, demand)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	shards, err := build()
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	n := len(shards)
	runtime.KeepAlive(shards)
	objects := (after.HeapObjects - before.HeapObjects) / uint64(n)
	kB := float64(after.HeapAlloc-before.HeapAlloc) / float64(n) / 1e3
	t.Logf("%d shards keep %d objects and %.1f kB each", n, objects, kB)
	if n != 24 {
		t.Fatalf("%d shards, want 24", n)
	}
	// 250 objects and 115.2 kB a shard; 546 and 123.0 kB while every row
	// had its own terms array and each node's flow variables grew by
	// append, 606 and 159.7 kB while each pool had a load column and two
	// rows, 2 010 and 230.3 kB while the model kept names.
	if objects > 260 || kB > 118 {
		t.Errorf("a shard's build keeps %d objects and %.1f kB, want at most 260 and 118 kB", objects, kB)
	}
}

// ctrlChurnDeployment is the deployment the ctrl-churn benchmark plans
// and the demand its streams arrive at.
func ctrlChurnDeployment(t *testing.T) (*scenario.Generated, core.Demand) {
	t.Helper()
	g, err := scenario.Generate(scenario.GenSpec{
		Seed: 1, Clusters: 48, Regions: 6, Services: 96, Classes: 24,
		Spread: 3, Replicas: 3, Concurrency: 8, TotalRPS: 150000, ArrivalSpread: 2,
		RemoteFraction: 0.1, MeanServiceTime: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	demand := core.Demand{}
	for _, sp := range g.Workload {
		if demand[sp.Class] == nil {
			demand[sp.Class] = map[topology.ClusterID]float64{}
		}
		demand[sp.Class][sp.Cluster] += sp.RateAt(0)
	}
	return g, demand
}
