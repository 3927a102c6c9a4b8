package simrun

import (
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/fault"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/topology"
	"github.com/servicelayernetworking/slate/internal/workload"
)

// remoteChildApp builds a 2-service app whose child service is placed
// in both clusters, plus a static table routing every west call of the
// child remotely to east — the worst case when west-east is cut.
func remoteChildApp() (*appgraph.App, *routing.Table) {
	const S appgraph.ServiceID = "child"
	app := &appgraph.App{
		Name: "remote-child",
		Services: map[appgraph.ServiceID]*appgraph.Service{
			"fe": {ID: "fe", Placement: appgraph.Uniform(appgraph.ReplicaPool{Replicas: 1, Concurrency: 64}, topology.West, topology.East)},
			S:    {ID: S, Placement: appgraph.Uniform(appgraph.ReplicaPool{Replicas: 2, Concurrency: 4}, topology.West, topology.East)},
		},
		Classes: []*appgraph.Class{{Name: "c", Root: &appgraph.CallNode{
			Service: "fe", Method: "GET", Path: "/", Count: 1,
			Work: appgraph.Work{MeanServiceTime: 100 * time.Microsecond},
			Children: []*appgraph.CallNode{{
				Service: S, Method: "GET", Path: "/x", Count: 1,
				Work: appgraph.Work{MeanServiceTime: 5 * time.Millisecond},
			}},
		}}},
	}
	table := routing.NewTable(1, map[routing.Key]routing.Distribution{
		{Service: string(S), Class: routing.AnyClass, Cluster: topology.West}: routing.Local(topology.East),
	})
	return app, table
}

func faultScenario(faults *fault.Schedule, ttl time.Duration) Scenario {
	app, _ := remoteChildApp()
	return Scenario{
		Name:          "faulty",
		Top:           topology.TwoClusters(40 * time.Millisecond),
		App:           app,
		Workload:      []workload.Spec{workload.Steady("c", topology.West, 50)},
		Duration:      30 * time.Second,
		Warmup:        2 * time.Second,
		ControlPeriod: 2 * time.Second,
		Seed:          11,
		Faults:        faults,
		RuleTTL:       ttl,
	}
}

func TestRunnerPartitionFailsCrossClusterCalls(t *testing.T) {
	_, table := remoteChildApp()
	sched := fault.NewSchedule().Partition(topology.West, topology.East, 10*time.Second, 10*time.Second)
	res, err := Run(faultScenario(sched, 0), Static("remote", table))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 {
		t.Fatal("no failures despite every west call routed across a cut link")
	}
	if res.Availability >= 1 {
		t.Errorf("availability = %v, want < 1", res.Availability)
	}
	// Roughly the partition's share of the measured window must fail:
	// 10s of 28s post-warmup, all west traffic remote-routed.
	frac := float64(res.Failed) / float64(res.Completed+res.Failed)
	if frac < 0.2 || frac > 0.5 {
		t.Errorf("failed fraction = %v, want ~10s/28s", frac)
	}
	if res.DegradedCalls != 0 {
		t.Errorf("degraded calls = %d without a RuleTTL", res.DegradedCalls)
	}
}

func TestRunnerRuleTTLDegradesToLocalThroughOutage(t *testing.T) {
	// Global outage [8s, 28s) with the west-east link cut [14s, 28s):
	// the hardened run (TTL 4s) stops trusting the remote-routing table
	// at t≈12s — before the cut — and serves everything locally; the
	// unhardened baseline keeps routing into the partition and fails.
	sched := fault.NewSchedule().
		Outage(fault.Global, 8*time.Second, 20*time.Second).
		Partition(topology.West, topology.East, 14*time.Second, 14*time.Second)

	_, table := remoteChildApp()
	hardened, err := Run(faultScenario(sched, 4*time.Second), Static("remote", table))
	if err != nil {
		t.Fatal(err)
	}
	unhardened, err := Run(faultScenario(sched, 0), Static("remote", table))
	if err != nil {
		t.Fatal(err)
	}

	if hardened.MissedTicks == 0 {
		t.Error("outage did not register as missed control ticks")
	}
	if hardened.DegradedCalls == 0 {
		t.Error("hardened run never degraded to local routing")
	}
	if hardened.Failed != 0 {
		t.Errorf("hardened run failed %d requests; degradation should dodge the partition", hardened.Failed)
	}
	if unhardened.Failed == 0 {
		t.Error("unhardened baseline shows no failures through the partition")
	}
	if hardened.Availability <= unhardened.Availability {
		t.Errorf("hardened availability %v <= unhardened %v",
			hardened.Availability, unhardened.Availability)
	}
}

func TestRunnerClusterOutageOnlyStalesThatCluster(t *testing.T) {
	// Only east's cluster controller is down; west keeps getting rule
	// refreshes, so with a TTL set west must never degrade while east
	// does. East has its own local traffic routed by a remote-routing
	// rule east->west so degradation is observable there.
	const S appgraph.ServiceID = "child"
	app, _ := remoteChildApp()
	table := routing.NewTable(1, map[routing.Key]routing.Distribution{
		{Service: string(S), Class: routing.AnyClass, Cluster: topology.East}: routing.Local(topology.West),
	})
	sched := fault.NewSchedule().Outage(fault.ClusterTarget(topology.East), 6*time.Second, 20*time.Second)
	scn := faultScenario(sched, 4*time.Second)
	scn.App = app
	scn.Workload = []workload.Spec{
		workload.Steady("c", topology.West, 30),
		workload.Steady("c", topology.East, 30),
	}
	res, err := Run(scn, Static("east-remote", table))
	if err != nil {
		t.Fatal(err)
	}
	if res.MissedTicks != 0 {
		t.Errorf("missed ticks = %d; the global controller never went down", res.MissedTicks)
	}
	if res.DegradedCalls == 0 {
		t.Error("east never degraded despite its controller being down past the TTL")
	}
	// West's rules stayed fresh: its calls follow the (empty-for-west)
	// table locally, never the degraded path. We can't separate counts
	// per cluster directly, but east degradation alone must not push
	// remote fraction up — east's remote-routing rule was abandoned.
	if res.RemoteFraction > 0.45 {
		t.Errorf("remote fraction = %v; degraded east should have gone local", res.RemoteFraction)
	}
}
