package simrun

import (
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/baseline"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/queuemodel"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/topology"
	"github.com/servicelayernetworking/slate/internal/workload"
)

// singleService builds a one-service app placed in the given clusters.
func singleService(svcTime time.Duration, pool appgraph.ReplicaPool, clusters ...topology.ClusterID) *appgraph.App {
	const S appgraph.ServiceID = "solo"
	return &appgraph.App{
		Name: "solo",
		Services: map[appgraph.ServiceID]*appgraph.Service{
			S: {ID: S, Placement: appgraph.Uniform(pool, clusters...)},
		},
		Classes: []*appgraph.Class{{Name: "c", Root: &appgraph.CallNode{
			Service: S, Method: "GET", Path: "/", Count: 1,
			Work: appgraph.Work{MeanServiceTime: svcTime, Dist: appgraph.DistExponential},
		}}},
	}
}

func TestRunnerMatchesMMcTheory(t *testing.T) {
	// One cluster, one M/M/2 pool at rho=0.75. The measured mean sojourn
	// must match the Erlang C prediction.
	top := topology.NewBuilder(0).AddCluster(topology.West, "w").MustBuild()
	app := singleService(10*time.Millisecond, appgraph.ReplicaPool{Replicas: 1, Concurrency: 2}, topology.West)
	scn := Scenario{
		Name:     "mmc-validation",
		Top:      top,
		App:      app,
		Workload: []workload.Spec{workload.Steady("c", topology.West, 150)},
		Duration: 600 * time.Second,
		Warmup:   30 * time.Second,
		Seed:     1,
	}
	res, err := Run(scn, Static("local", routing.EmptyTable()))
	if err != nil {
		t.Fatal(err)
	}
	model := queuemodel.MMc{Servers: 2, Mu: 100}
	want := model.SojournSeconds(150)
	got := res.Mean.Seconds()
	if rel := math.Abs(got-want) / want; rel > 0.08 {
		t.Errorf("measured mean %.4fs vs M/M/2 theory %.4fs (rel err %.2f)", got, want, rel)
	}
	if res.Completed == 0 || res.Generated == 0 {
		t.Error("no requests processed")
	}
}

func TestRunnerMD1Theory(t *testing.T) {
	// Deterministic service times: M/D/1 at rho=0.8.
	top := topology.NewBuilder(0).AddCluster(topology.West, "w").MustBuild()
	app := singleService(10*time.Millisecond, appgraph.ReplicaPool{Replicas: 1, Concurrency: 1}, topology.West)
	app.Classes[0].Root.Work.Dist = appgraph.DistDeterministic
	scn := Scenario{
		Name:     "md1-validation",
		Top:      top,
		App:      app,
		Workload: []workload.Spec{workload.Steady("c", topology.West, 80)},
		Duration: 600 * time.Second,
		Warmup:   30 * time.Second,
		Seed:     2,
	}
	res, err := Run(scn, Static("local", routing.EmptyTable()))
	if err != nil {
		t.Fatal(err)
	}
	want := md1SojournSeconds(10*time.Millisecond, 80)
	got := res.Mean.Seconds()
	if rel := math.Abs(got-want) / want; rel > 0.08 {
		t.Errorf("measured mean %.4fs vs M/D/1 theory %.4fs (rel err %.2f)", got, want, rel)
	}
}

// md1SojournSeconds is the M/D/1 (Poisson arrivals, deterministic
// service, one server) Pollaczek–Khinchine sojourn time
// W = 1/μ + ρ/(2μ(1−ρ)), +Inf at or beyond capacity μ. It is the
// analytic reference for deterministic-service runs; the controller
// itself only ever fits M/M/c.
func md1SojournSeconds(service time.Duration, lambda float64) float64 {
	mu := 1 / service.Seconds()
	if lambda <= 0 {
		return 1 / mu
	}
	rho := lambda / mu
	if rho >= 1 {
		return math.Inf(1)
	}
	return 1/mu + rho/(2*mu*(1-rho))
}

func TestMD1HalfTheMM1Wait(t *testing.T) {
	// Classic result: M/D/1 queueing delay is half of M/M/1 at equal rho.
	mm := queuemodel.NewMMc(1, 10*time.Millisecond)
	lambda := 80.0
	wqMM := mm.SojournSeconds(lambda) - 0.010
	wqMD := md1SojournSeconds(10*time.Millisecond, lambda) - 0.010
	if math.Abs(wqMD-wqMM/2) > 1e-9 {
		t.Errorf("M/D/1 wait %v, want half of M/M/1 wait %v", wqMD, wqMM)
	}
}

func TestMD1Capacity(t *testing.T) {
	// Capacity is 1/service time: 250 req/s at 4ms. Finite just below
	// it, +Inf at and beyond it.
	const svc = 4 * time.Millisecond
	if got := md1SojournSeconds(svc, 0); math.Abs(got-0.004) > 1e-12 {
		t.Errorf("idle sojourn = %v, want the bare service time 0.004", got)
	}
	if math.IsInf(md1SojournSeconds(svc, 249), 1) {
		t.Error("below capacity should be finite")
	}
	if !math.IsInf(md1SojournSeconds(svc, 250), 1) || !math.IsInf(md1SojournSeconds(svc, 260), 1) {
		t.Error("at or beyond capacity should be +Inf")
	}
}

func TestRunnerRemoteRoutingPaysRTT(t *testing.T) {
	// Force all traffic for a child service to the remote cluster; e2e
	// latency must include the full RTT.
	top := topology.TwoClusters(40 * time.Millisecond)
	const S appgraph.ServiceID = "solo"
	app := &appgraph.App{
		Name: "remote",
		Services: map[appgraph.ServiceID]*appgraph.Service{
			"fe": {ID: "fe", Placement: appgraph.Uniform(appgraph.ReplicaPool{Replicas: 1, Concurrency: 64}, topology.West, topology.East)},
			S:    {ID: S, Placement: appgraph.Uniform(appgraph.ReplicaPool{Replicas: 2, Concurrency: 4}, topology.West, topology.East)},
		},
		Classes: []*appgraph.Class{{Name: "c", Root: &appgraph.CallNode{
			Service: "fe", Method: "GET", Path: "/", Count: 1,
			Work: appgraph.Work{MeanServiceTime: 100 * time.Microsecond},
			Children: []*appgraph.CallNode{{
				Service: S, Method: "GET", Path: "/x", Count: 1,
				Work: appgraph.Work{MeanServiceTime: 5 * time.Millisecond, RequestBytes: 1000, ResponseBytes: 5000},
			}},
		}}},
	}
	remoteTable := routing.NewTable(1, map[routing.Key]routing.Distribution{
		{Service: string(S), Class: routing.AnyClass, Cluster: topology.West}: routing.Local(topology.East),
	})
	scn := Scenario{
		Name:     "remote-rtt",
		Top:      top,
		App:      app,
		Workload: []workload.Spec{workload.Steady("c", topology.West, 50)},
		Duration: 30 * time.Second,
		Warmup:   5 * time.Second,
		Seed:     3,
	}
	res, err := Run(scn, Static("remote", remoteTable))
	if err != nil {
		t.Fatal(err)
	}
	// Minimum latency: 40ms RTT + ~5ms service.
	if res.Mean < 44*time.Millisecond {
		t.Errorf("mean %v does not include the 40ms RTT", res.Mean)
	}
	if res.P50 < 40*time.Millisecond {
		t.Errorf("p50 %v below RTT floor", res.P50)
	}
	// Egress: (1000 + 5000) bytes per request.
	perReq := float64(res.EgressBytes) / float64(res.Completed)
	if math.Abs(perReq-6000) > 1 {
		t.Errorf("egress per request = %v bytes, want 6000", perReq)
	}
	if res.EgressCost <= 0 {
		t.Error("egress cost not accounted")
	}
	if res.RemoteFraction <= 0 {
		t.Error("remote fraction not accounted")
	}
	// Nothing was served fully locally in west.
	if rps := res.LocalServedRPS[topology.West]; !almostEqual(rps, 0) {
		t.Errorf("LocalServedRPS west = %v, want 0", rps)
	}
}

func TestRunnerSLATEBeatsWaterfallUnderOverload(t *testing.T) {
	// Paper Fig. 6a shape: west overloaded, east idle. SLATE's optimized
	// split must yield lower mean latency than waterfall's static
	// threshold spill.
	top := topology.TwoClusters(40 * time.Millisecond)
	app := appgraph.LinearChain(appgraph.ChainOptions{
		Services:        3,
		MeanServiceTime: 10 * time.Millisecond,
		Pool:            appgraph.ReplicaPool{Replicas: 2, Concurrency: 4},
		Clusters:        []topology.ClusterID{topology.West, topology.East},
	})
	demand := core.Demand{"default": {topology.West: 900, topology.East: 100}}
	scn := Scenario{
		Name: "fig6a-like",
		Top:  top,
		App:  app,
		Workload: []workload.Spec{
			workload.Steady("default", topology.West, 900),
			workload.Steady("default", topology.East, 100),
		},
		Duration: 60 * time.Second,
		Warmup:   10 * time.Second,
		Seed:     11,
	}

	slateCtrl, err := core.NewController(top, app, core.ControllerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	slateCtrl.SetDemand(demand)
	slateRes, err := Run(scn, SLATE(slateCtrl, true))
	if err != nil {
		t.Fatal(err)
	}

	wfCtrl, err := baseline.NewController(top, app, baseline.DefaultCapacities(app, top, demand, 0.8))
	if err != nil {
		t.Fatal(err)
	}
	wfCtrl.SetDemand(demand)
	wfRes, err := Run(scn, Waterfall(wfCtrl, true))
	if err != nil {
		t.Fatal(err)
	}

	if slateRes.Mean >= wfRes.Mean {
		t.Errorf("SLATE mean %v not better than Waterfall %v", slateRes.Mean, wfRes.Mean)
	}
	t.Logf("SLATE %v vs Waterfall %v (%.2fx)", slateRes.Mean, wfRes.Mean,
		float64(wfRes.Mean)/float64(slateRes.Mean))
}

func TestRunnerAdaptiveSLATEConvergesFromLocal(t *testing.T) {
	// Unprimed SLATE starts all-local and must start offloading via the
	// control loop under overload.
	top := topology.TwoClusters(40 * time.Millisecond)
	app := appgraph.LinearChain(appgraph.ChainOptions{
		Services:        3,
		MeanServiceTime: 10 * time.Millisecond,
		Pool:            appgraph.ReplicaPool{Replicas: 2, Concurrency: 4},
		Clusters:        []topology.ClusterID{topology.West, topology.East},
	})
	scn := Scenario{
		Name: "adaptive",
		Top:  top,
		App:  app,
		Workload: []workload.Spec{
			workload.Steady("default", topology.West, 850),
			workload.Steady("default", topology.East, 100),
		},
		Duration:      60 * time.Second,
		Warmup:        5 * time.Second,
		ControlPeriod: 2 * time.Second,
		Seed:          13,
	}
	ctrl, err := core.NewController(top, app, core.ControllerConfig{DemandSmoothing: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(scn, SLATE(ctrl, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.RemoteFraction <= 0 {
		t.Error("adaptive SLATE never offloaded")
	}
	d := ctrl.Table().Lookup("svc-1", "default", topology.West)
	if d.Weight(topology.East) <= 0 {
		t.Errorf("final table has no offload: %v", d)
	}
	// Demand estimate converged near the true arrival rates.
	got := ctrl.Demand()["default"][topology.West]
	if math.Abs(got-850) > 100 {
		t.Errorf("estimated demand %v, want ~850", got)
	}
}

func TestRunnerLocalServedRPS(t *testing.T) {
	top := topology.TwoClusters(20 * time.Millisecond)
	app := appgraph.LinearChain(appgraph.ChainOptions{})
	scn := Scenario{
		Name: "localserved",
		Top:  top,
		App:  app,
		Workload: []workload.Spec{
			workload.Steady("default", topology.West, 200),
		},
		Duration: 30 * time.Second,
		Warmup:   5 * time.Second,
		Seed:     17,
	}
	res, err := Run(scn, Static("local", routing.EmptyTable()))
	if err != nil {
		t.Fatal(err)
	}
	got := res.LocalServedRPS[topology.West]
	if math.Abs(got-200) > 20 {
		t.Errorf("LocalServedRPS = %v, want ~200", got)
	}
}

func TestRunnerParallelChildren(t *testing.T) {
	// Fanout app: e2e latency should reflect the max of parallel
	// children, not their sum. With 3 backends at 5ms deterministic and
	// light load, e2e should be ~5ms, far below 15ms.
	top := topology.NewBuilder(0).AddCluster(topology.West, "w").MustBuild()
	app := appgraph.FanoutApp(appgraph.FanoutOptions{
		Width:       3,
		BackendTime: 5 * time.Millisecond,
		Clusters:    []topology.ClusterID{topology.West},
	})
	for _, n := range app.Classes[0].Root.Children {
		n.Work.Dist = appgraph.DistDeterministic
	}
	app.Classes[0].Root.Work.Dist = appgraph.DistDeterministic
	scn := Scenario{
		Name:     "parallel",
		Top:      top,
		App:      app,
		Workload: []workload.Spec{workload.Steady("default", topology.West, 20)},
		Duration: 20 * time.Second,
		Warmup:   2 * time.Second,
		Seed:     19,
	}
	res, err := Run(scn, Static("local", routing.EmptyTable()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean > 9*time.Millisecond {
		t.Errorf("parallel fanout mean %v, want ~5.3ms (children overlap)", res.Mean)
	}
	if res.Mean < 5*time.Millisecond {
		t.Errorf("mean %v below the 5ms backend floor", res.Mean)
	}
}

func TestRunnerSequentialCountMultiplier(t *testing.T) {
	// A child with Count=3 at 5ms deterministic adds ~15ms sequentially.
	top := topology.NewBuilder(0).AddCluster(topology.West, "w").MustBuild()
	app := &appgraph.App{
		Name: "mult",
		Services: map[appgraph.ServiceID]*appgraph.Service{
			"root":  {ID: "root", Placement: appgraph.Uniform(appgraph.ReplicaPool{Replicas: 1, Concurrency: 64}, topology.West)},
			"child": {ID: "child", Placement: appgraph.Uniform(appgraph.ReplicaPool{Replicas: 8, Concurrency: 8}, topology.West)},
		},
		Classes: []*appgraph.Class{{Name: "c", Root: &appgraph.CallNode{
			Service: "root", Method: "GET", Path: "/", Count: 1,
			Work: appgraph.Work{MeanServiceTime: time.Millisecond, Dist: appgraph.DistDeterministic},
			Children: []*appgraph.CallNode{{
				Service: "child", Method: "GET", Path: "/c", Count: 3,
				Work: appgraph.Work{MeanServiceTime: 5 * time.Millisecond, Dist: appgraph.DistDeterministic},
			}},
		}}},
	}
	scn := Scenario{
		Name:     "count",
		Top:      top,
		App:      app,
		Workload: []workload.Spec{workload.Steady("c", topology.West, 10)},
		Duration: 20 * time.Second,
		Warmup:   2 * time.Second,
		Seed:     23,
	}
	res, err := Run(scn, Static("local", routing.EmptyTable()))
	if err != nil {
		t.Fatal(err)
	}
	want := 16 * time.Millisecond // 1 + 3*5
	if res.Mean < want-time.Millisecond || res.Mean > want+3*time.Millisecond {
		t.Errorf("mean %v, want ~%v", res.Mean, want)
	}
}

func TestScenarioValidation(t *testing.T) {
	top := topology.TwoClusters(time.Millisecond)
	app := appgraph.LinearChain(appgraph.ChainOptions{})
	base := Scenario{
		Top: top, App: app,
		Workload: []workload.Spec{workload.Steady("default", topology.West, 10)},
		Duration: time.Second,
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	cases := []func(s *Scenario){
		func(s *Scenario) { s.Top = nil },
		func(s *Scenario) { s.Duration = 0 },
		func(s *Scenario) { s.Warmup = 2 * time.Second },
		func(s *Scenario) { s.Workload = nil },
		func(s *Scenario) { s.Workload = []workload.Spec{workload.Steady("ghost", topology.West, 1)} },
		func(s *Scenario) { s.Workload = []workload.Spec{workload.Steady("default", "mars", 1)} },
	}
	for i, mutate := range cases {
		s := base
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid scenario accepted", i)
		}
	}
}

func TestRunnerCDF(t *testing.T) {
	top := topology.NewBuilder(0).AddCluster(topology.West, "w").MustBuild()
	app := singleService(5*time.Millisecond, appgraph.ReplicaPool{Replicas: 1, Concurrency: 4}, topology.West)
	scn := Scenario{
		Name:     "cdf",
		Top:      top,
		App:      app,
		Workload: []workload.Spec{workload.Steady("c", topology.West, 100)},
		Duration: 20 * time.Second,
		Warmup:   2 * time.Second,
		Seed:     29,
	}
	res, err := Run(scn, Static("local", routing.EmptyTable()))
	if err != nil {
		t.Fatal(err)
	}
	cdf := res.CDF()
	if len(cdf) == 0 {
		t.Fatal("empty CDF")
	}
	if last := cdf[len(cdf)-1]; !almostEqual(last.Fraction, 1) {
		t.Errorf("CDF should end at 1, got %v", last.Fraction)
	}
}

func TestRunnerTimeline(t *testing.T) {
	top := topology.TwoClusters(20 * time.Millisecond)
	app := appgraph.LinearChain(appgraph.ChainOptions{})
	scn := Scenario{
		Name:          "timeline",
		Top:           top,
		App:           app,
		Workload:      []workload.Spec{workload.Steady("default", topology.West, 100)},
		Duration:      20 * time.Second,
		Warmup:        0,
		ControlPeriod: 2 * time.Second,
		Seed:          31,
	}
	res, err := Run(scn, Static("local", routing.EmptyTable()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) < 8 {
		t.Fatalf("timeline points = %d, want ~9", len(res.Timeline))
	}
	prev := time.Duration(0)
	for _, p := range res.Timeline {
		if p.At <= prev {
			t.Fatal("timeline not increasing in time")
		}
		prev = p.At
		if p.Mean <= 0 || p.RPS <= 0 {
			t.Fatalf("degenerate timeline point %+v", p)
		}
	}
	// No control period -> no timeline.
	scn.ControlPeriod = 0
	res2, err := Run(scn, Static("local", routing.EmptyTable()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Timeline) != 0 {
		t.Errorf("timeline without control period = %d points", len(res2.Timeline))
	}
}

func TestAutoscalerScalesUpUnderOverload(t *testing.T) {
	// Single cluster, pool of 1x2 at 10ms (cap 200); offered 500 RPS.
	// With an autoscaler the pool must grow and the post-scale latency
	// must drop to near service time; without it the queue diverges.
	top := topology.NewBuilder(0).AddCluster(topology.West, "w").MustBuild()
	app := singleService(10*time.Millisecond, appgraph.ReplicaPool{Replicas: 1, Concurrency: 2}, topology.West)
	scn := Scenario{
		Name:     "hpa",
		Top:      top,
		App:      app,
		Workload: []workload.Spec{workload.Steady("c", topology.West, 500)},
		Duration: 120 * time.Second,
		Warmup:   5 * time.Second,
		Seed:     41,
		Autoscaler: &AutoscalerConfig{
			Period:            5 * time.Second,
			TargetUtilization: 0.7,
			ReactionDelay:     10 * time.Second,
			MaxReplicas:       16,
		},
	}
	res, err := Run(scn, Static("local", routing.EmptyTable()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ScaleEvents) == 0 {
		t.Fatal("autoscaler never scaled")
	}
	key := core.PoolKey{Service: "solo", Cluster: topology.West}
	final := res.FinalReplicas[key]
	// 500 RPS at 10ms needs 5 busy servers; at 70% target that is ~7.2
	// servers ≈ 4 replicas of concurrency 2.
	if final < 4 {
		t.Errorf("final replicas = %d, want >= 4", final)
	}
	// Events are ordered in time and end at the final size.
	prev := time.Duration(0)
	for _, e := range res.ScaleEvents {
		if e.At < prev {
			t.Fatal("scale events out of order")
		}
		prev = e.At
	}
	if last := res.ScaleEvents[len(res.ScaleEvents)-1]; last.Replicas != final {
		t.Errorf("last event replicas %d != final %d", last.Replicas, final)
	}
}

func TestAutoscalerScalesDownWhenIdle(t *testing.T) {
	top := topology.NewBuilder(0).AddCluster(topology.West, "w").MustBuild()
	app := singleService(10*time.Millisecond, appgraph.ReplicaPool{Replicas: 8, Concurrency: 2}, topology.West)
	scn := Scenario{
		Name:     "hpa-down",
		Top:      top,
		App:      app,
		Workload: []workload.Spec{workload.Steady("c", topology.West, 50)}, // needs ~0.5 servers
		Duration: 120 * time.Second,
		Warmup:   5 * time.Second,
		Seed:     43,
		Autoscaler: &AutoscalerConfig{
			Period:            5 * time.Second,
			TargetUtilization: 0.7,
			ReactionDelay:     10 * time.Second,
		},
	}
	res, err := Run(scn, Static("local", routing.EmptyTable()))
	if err != nil {
		t.Fatal(err)
	}
	key := core.PoolKey{Service: "solo", Cluster: topology.West}
	if final := res.FinalReplicas[key]; final < 1 || final > 2 {
		t.Errorf("final replicas = %d, want scaled down to 1 or 2 (the floor is one replica)", final)
	}
	// Requests kept completing throughout.
	if res.Completed < res.Generated*9/10 {
		t.Errorf("completed %d of %d during scale-down", res.Completed, res.Generated)
	}
}

// TestScaleEventsOrderStable: pools resized in the same autoscaler tick
// act at the same instant, so their order in ScaleEvents (and the
// kernel's tie-break among the resize events) must come from the pool
// keys, not from map iteration: repeated runs list identical events, in
// (At, Service, Cluster) order.
func TestScaleEventsOrderStable(t *testing.T) {
	clusters := []topology.ClusterID{topology.West, topology.East}
	run := func() []ScaleEvent {
		// Eight pools (gateway + 3 services, two clusters) hit by a burst
		// in both clusters, so several scale in every tick.
		scn := Scenario{
			Name: "hpa",
			Top:  topology.TwoClusters(40 * time.Millisecond),
			App: appgraph.LinearChain(appgraph.ChainOptions{
				Services:        3,
				MeanServiceTime: 10 * time.Millisecond,
				Pool:            appgraph.ReplicaPool{Replicas: 2, Concurrency: 4},
				Clusters:        clusters,
			}),
			Workload: []workload.Spec{
				workload.Burst("default", topology.West, 300, 1500, 2*time.Second, 10*time.Second),
				workload.Burst("default", topology.East, 300, 1500, 2*time.Second, 10*time.Second),
			},
			Duration: 20 * time.Second,
			Warmup:   time.Second,
			Seed:     41,
			Autoscaler: &AutoscalerConfig{
				Period:        2 * time.Second,
				ReactionDelay: 3 * time.Second,
				MaxReplicas:   12,
			},
		}
		res, err := Run(scn, Static("local", routing.EmptyTable()))
		if err != nil {
			t.Fatal(err)
		}
		return res.ScaleEvents
	}
	want := run()
	sameInstant := 0
	for i := 1; i < len(want); i++ {
		a, b := want[i-1], want[i]
		if a.At > b.At {
			t.Fatalf("scale events out of time order: %v after %v", b.At, a.At)
		}
		if a.At != b.At {
			continue
		}
		sameInstant++
		if a.Pool.Service > b.Pool.Service || (a.Pool.Service == b.Pool.Service && a.Pool.Cluster >= b.Pool.Cluster) {
			t.Fatalf("same-instant scale events out of pool order: %v before %v", a.Pool, b.Pool)
		}
	}
	if sameInstant < 4 {
		t.Fatalf("only %d same-instant scale event pairs among %d events; the scenario does not exercise the tie", sameInstant, len(want))
	}
	for i := 0; i < 4; i++ {
		if got := run(); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d listed scale events in a different order:\n got %v\nwant %v", i+2, got, want)
		}
	}
}

func TestAutoscalerValidation(t *testing.T) {
	top := topology.NewBuilder(0).AddCluster(topology.West, "w").MustBuild()
	app := singleService(time.Millisecond, appgraph.ReplicaPool{Replicas: 1, Concurrency: 1}, topology.West)
	scn := Scenario{
		Name:       "bad",
		Top:        top,
		App:        app,
		Workload:   []workload.Spec{workload.Steady("c", topology.West, 1)},
		Duration:   time.Second,
		Autoscaler: &AutoscalerConfig{TargetUtilization: 1.5},
	}
	if err := scn.Validate(); err == nil {
		t.Error("target utilization > 1 accepted")
	}
}
