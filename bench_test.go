// Benchmarks regenerating every figure of the paper's evaluation
// (HotNets '24, §4) plus micro-benchmarks of the hot paths. Each
// figure benchmark runs the full experiment and reports the metrics its
// entry in the figure list (figures_test.go) names via b.ReportMetric,
// so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's artifacts from a clean checkout. EXPERIMENTS.md
// records paper-vs-measured values. Nothing here is gated: these are
// developer tools. Figure values are held by TestFiguresPinned against
// FIGURES.json, zero-allocation paths by the per-package AllocsPerRun
// tests and the hotalloc analyzer, and performance by BENCHMARK.json.
package slate_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"path"
	"sort"
	"testing"
	"time"

	slate "github.com/servicelayernetworking/slate"
	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/controlplane"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/experiments"
	"github.com/servicelayernetworking/slate/internal/forecast"
	"github.com/servicelayernetworking/slate/internal/lp"
	"github.com/servicelayernetworking/slate/internal/queuemodel"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/scenario"
	"github.com/servicelayernetworking/slate/internal/search"
	"github.com/servicelayernetworking/slate/internal/sim"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

func benchOptions() experiments.Options {
	return experiments.Options{Duration: 60 * time.Second, Warmup: 10 * time.Second, Seed: 42}
}

// runFigure runs one experiment b.N times at the published options and
// reports every metric its spec lists. A listed metric the figure did
// not produce fails the benchmark.
func runFigure(b *testing.B, spec figureSpec) {
	b.Helper()
	var fig *experiments.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = spec.run(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, k := range spec.pinned {
		v, ok := fig.Summary[k]
		if !ok {
			b.Fatalf("%s: listed metric %q missing from Summary", spec.id, k)
		}
		b.ReportMetric(v, k)
	}
	for _, pat := range spec.wallClock {
		matched := false
		for k, v := range fig.Summary {
			if ok, _ := path.Match(pat, k); ok {
				b.ReportMetric(v, k)
				matched = true
			}
		}
		if !matched {
			b.Fatalf("%s: no Summary key matches listed wall-clock metric %q", spec.id, pat)
		}
	}
}

// BenchmarkFigure regenerates every experiment of the figure list
// (figures_test.go; DESIGN.md's experiment index says what each one
// shows), one sub-benchmark per id: -bench 'Figure/fig6a$' runs one.
func BenchmarkFigure(b *testing.B) {
	for _, spec := range figures {
		b.Run(spec.id, func(b *testing.B) {
			if spec.skip != "" {
				b.Skip(spec.skip)
			}
			runFigure(b, spec)
		})
	}
}

// --- Micro-benchmarks of the hot paths -------------------------------

// BenchmarkOptimizerSolve measures the global controller's per-period
// optimization cost for the GCP-scale problem ("scalability & fast
// reaction", paper §5). The cold sub-benchmark rebuilds and solves the
// LP from scratch every iteration (the stateless Problem path); warm is
// the steady-state control loop — a cached formulation re-solved from
// the previous tick's basis via the stateful Optimizer.
func BenchmarkOptimizerSolve(b *testing.B) {
	top := slate.GCPTopology()
	app := slate.LinearChain(slate.ChainOptions{
		Services:        3,
		MeanServiceTime: 10 * time.Millisecond,
		Pool:            slate.ReplicaPool{Replicas: 2, Concurrency: 4},
		Clusters:        top.ClusterIDs(),
	})
	demand := slate.Demand{"default": {
		slate.OR: 1000, slate.UT: 100, slate.IOW: 1000, slate.SC: 100,
	}}
	profs := slate.DefaultProfiles(app, top, demand)

	b.Run("cold", func(b *testing.B) {
		prob := &slate.Problem{Top: top, App: app, Demand: demand, Profiles: profs}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := prob.Optimize(uint64(i + 1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		opt := slate.NewOptimizer(top, app, slate.OptimizerConfig{})
		if _, err := opt.Optimize(demand, profs, 1); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := opt.Optimize(demand, profs, uint64(i+2)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := opt.Stats()
		if st.WarmSolves < uint64(b.N) {
			b.Fatalf("warm solves = %d of %d iterations", st.WarmSolves, b.N)
		}
	})
}

// BenchmarkRobustSolve measures the robust (Bertsimas–Sim budgeted
// uncertainty) formulation on the same GCP-scale problem as
// BenchmarkOptimizerSolve: a 25% demand margin with Γ=2. Cold rebuilds
// the dualized LP from scratch; warm re-solves the cached formulation
// with the robust rows rewritten in place — the steady-state cost of
// running the control loop in robust mode.
func BenchmarkRobustSolve(b *testing.B) {
	top := slate.GCPTopology()
	app := slate.LinearChain(slate.ChainOptions{
		Services:        3,
		MeanServiceTime: 10 * time.Millisecond,
		Pool:            slate.ReplicaPool{Replicas: 2, Concurrency: 4},
		Clusters:        top.ClusterIDs(),
	})
	demand := slate.Demand{"default": {
		slate.OR: 1000, slate.UT: 100, slate.IOW: 1000, slate.SC: 100,
	}}
	profs := slate.DefaultProfiles(app, top, demand)
	cfg := slate.OptimizerConfig{DemandMargin: 0.25, Budget: 2}

	b.Run("cold", func(b *testing.B) {
		prob := &slate.Problem{Top: top, App: app, Demand: demand, Profiles: profs, Config: cfg}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := prob.Optimize(uint64(i + 1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		opt := slate.NewOptimizer(top, app, cfg)
		if _, err := opt.Optimize(demand, profs, 1); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := opt.Optimize(demand, profs, uint64(i+2)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := opt.Stats()
		if st.WarmSolves < uint64(b.N) {
			b.Fatalf("warm solves = %d of %d iterations", st.WarmSolves, b.N)
		}
	})
}

// BenchmarkForecastObserve measures one telemetry observation folding
// into Holt-Winters state — the most expensive of the three smoothing
// models and a per-key, per-tick //slate:hot path that must stay
// allocation-free after the key's first observation.
func BenchmarkForecastObserve(b *testing.B) {
	f := forecast.New(forecast.Config{Alpha: 0.5, Beta: 0.1, Gamma: 0.3, SeasonLength: 12})
	k := forecast.Key{Class: "default", Cluster: "west"}
	f.Observe(k, 100) // create the state outside the measured region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Observe(k, float64(400+i%200))
	}
}

// BenchmarkForecastPredict measures one h=1 forecast extraction from
// trained Holt-Winters state (pure arithmetic, //slate:hot).
func BenchmarkForecastPredict(b *testing.B) {
	f := forecast.New(forecast.Config{Alpha: 0.5, Beta: 0.1, Gamma: 0.3, SeasonLength: 12})
	k := forecast.Key{Class: "default", Cluster: "west"}
	for i := 0; i < 48; i++ {
		f.Observe(k, 500+300*float64(i%12)/12)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.Predict(k, 1) < 0 {
			b.Fatal("negative forecast")
		}
	}
}

// BenchmarkSimplexTransportation measures the raw LP solver on a dense
// 20x20 transportation problem (400 variables).
func BenchmarkSimplexTransportation(b *testing.B) {
	build := func() *lp.Model {
		m := lp.NewModel()
		const n = 20
		vars := make([][]lp.Var, n)
		for i := range vars {
			vars[i] = make([]lp.Var, n)
			for j := range vars[i] {
				vars[i][j] = m.AddVar("x", float64((i*7+j*13)%10+1))
			}
		}
		for i := 0; i < n; i++ {
			terms := make([]lp.Term, n)
			for j := 0; j < n; j++ {
				terms[j] = lp.Term{Var: vars[i][j], Coef: 1}
			}
			m.MustConstraint("s", terms, lp.EQ, 10)
		}
		for j := 0; j < n; j++ {
			terms := make([]lp.Term, n)
			for i := 0; i < n; i++ {
				terms[i] = lp.Term{Var: vars[i][j], Coef: 1}
			}
			m.MustConstraint("d", terms, lp.EQ, 10)
		}
		return m
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := build().Solve()
		if err != nil || sol.Status != lp.Optimal {
			b.Fatalf("solve: %v %v", err, sol)
		}
	}
}

// BenchmarkDESThroughput measures raw simulation event throughput.
func BenchmarkDESThroughput(b *testing.B) {
	k := sim.NewKernel()
	var fn func(*sim.Kernel)
	n := 0
	fn = func(kk *sim.Kernel) {
		n++
		if n < b.N {
			kk.After(time.Microsecond, fn)
		}
	}
	k.After(time.Microsecond, fn)
	b.ResetTimer()
	k.Run()
}

// BenchmarkRoutingPick measures the data-plane hot path: rule lookup
// plus weighted pick.
func BenchmarkRoutingPick(b *testing.B) {
	d, err := routing.NewDistribution(map[topology.ClusterID]float64{
		"or": 0.4, "ut": 0.3, "iow": 0.2, "sc": 0.1,
	})
	if err != nil {
		b.Fatal(err)
	}
	tab := routing.NewTable(1, map[routing.Key]routing.Distribution{
		{Service: "svc", Class: "H", Cluster: "or"}: d,
	})
	rng := sim.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist := tab.Lookup("svc", "H", "or")
		if dist.Pick(rng.Float64()) == "" {
			b.Fatal("empty pick")
		}
	}
}

// BenchmarkHistogramRecord measures telemetry ingestion on the request
// path.
func BenchmarkHistogramRecord(b *testing.B) {
	h := telemetry.DefaultHistogram()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i%100) * time.Millisecond)
	}
}

// BenchmarkMMcSojourn measures one latency-model evaluation (used in
// rule extraction and PWL construction).
func BenchmarkMMcSojourn(b *testing.B) {
	m := queuemodel.MMc{Servers: 64, Mu: 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.SojournSeconds(float64(i % 6000))
	}
}

// BenchmarkSearchReoptimize measures the anytime local-search optimizer
// re-optimizing the 64-cluster × 32-class generated formulation from a
// warm incumbent after a demand perturbation — the regime where the
// simplex needs a cold solve but the search needs only an incremental
// SetDemand plus a bounded move loop. The loop must stay allocation-free
// (the move path is //slate:hot); the result is deterministic per seed.
func BenchmarkSearchReoptimize(b *testing.B) {
	g, err := scenario.Generate(scenario.GenSpec{
		Seed:            42,
		Clusters:        64,
		Regions:         8,
		Services:        128,
		Classes:         32,
		Spread:          3,
		Replicas:        3,
		Concurrency:     8,
		TotalRPS:        200000,
		ArrivalSpread:   2,
		RemoteFraction:  0.1,
		MeanServiceTime: 2 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	demand := core.Demand{}
	for _, sp := range g.Workload {
		if r := sp.RateAt(0); r > 0 {
			if demand[sp.Class] == nil {
				demand[sp.Class] = map[topology.ClusterID]float64{}
			}
			demand[sp.Class][sp.Cluster] += r
		}
	}
	profiles := core.DefaultProfiles(g.App, g.Top, demand)
	poolFn := func(svc appgraph.ServiceID, c topology.ClusterID) (search.PoolParams, bool) {
		prof, ok := profiles.Get(svc, c)
		if !ok {
			return search.PoolParams{}, false
		}
		segs, err := queuemodel.Linearize(prof.Model, nil)
		if err != nil {
			return search.PoolParams{}, false
		}
		return search.PoolParams{Ref: prof.RefServiceTime.Seconds(), Segs: segs}, true
	}
	se := search.New(g.Top, g.App, search.Params{LatencyWeight: 1})
	if err := se.Reset(demand, poolFn, g.Table); err != nil {
		b.Fatal(err)
	}
	se.Run(1 << 14) // settle the incumbent

	// The perturbation set: every class's first arrival cluster, in
	// deterministic order.
	type key struct {
		class string
		cl    topology.ClusterID
		rps   float64
	}
	var keys []key
	classes := make([]string, 0, len(demand))
	for class := range demand {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		cls := make([]topology.ClusterID, 0, len(demand[class]))
		for c := range demand[class] {
			cls = append(cls, c)
		}
		sort.Slice(cls, func(i, j int) bool { return cls[i] < cls[j] })
		keys = append(keys, key{class, cls[0], demand[class][cls[0]]})
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := 1.2
		if i%2 == 1 {
			f = 0.9
		}
		for _, k := range keys {
			if err := se.SetDemand(k.class, k.cl, k.rps*f); err != nil {
				b.Fatal(err)
			}
		}
		res := se.Run(512)
		if res.Evals == 0 && res.Moves == 0 && !res.Converged {
			b.Fatal("search did no work")
		}
	}
	b.StopTimer()
	if !se.Run(1 << 12).Feasible {
		b.Fatal("search left an infeasible table")
	}
}

// benchSnapshotState builds a warm decomposed controller for the
// snapshot benchmarks: an 8-class star app (one shard per class) warmed
// by four ticks of drifting demand, so every shard carries a simplex
// basis, an input fingerprint, and a cached sub-plan — the payload a
// leader serves at GET /v1/snapshot every sync period.
type benchSnapshotState struct {
	top   *topology.Topology
	app   *appgraph.App
	ctrl  *core.Controller
	stats func(scale float64) []telemetry.WindowStats
}

func benchSnapshot(b *testing.B) *benchSnapshotState {
	b.Helper()
	top := topology.TwoClusters(40 * time.Millisecond)
	app := &appgraph.App{Name: "snapshot-bench", Services: map[appgraph.ServiceID]*appgraph.Service{}}
	const gateway appgraph.ServiceID = "gateway"
	app.Services[gateway] = &appgraph.Service{ID: gateway,
		Placement: appgraph.Uniform(appgraph.ReplicaPool{Replicas: 2, Concurrency: 64}, topology.West, topology.East)}
	pool := appgraph.ReplicaPool{Replicas: 2, Concurrency: 4}
	work := appgraph.Work{MeanServiceTime: 10 * time.Millisecond, RequestBytes: 1 << 10, ResponseBytes: 4 << 10}
	var classes []string
	for k := 0; k < 8; k++ {
		svc := appgraph.ServiceID("svc-" + string(rune('a'+k)))
		app.Services[svc] = &appgraph.Service{ID: svc, Placement: appgraph.Uniform(pool, topology.West, topology.East)}
		class := "c" + string(rune('a'+k))
		classes = append(classes, class)
		app.Classes = append(app.Classes, &appgraph.Class{Name: class, Root: &appgraph.CallNode{
			Service: gateway, Method: "POST", Path: "/in",
			Work:  appgraph.Work{MeanServiceTime: 100 * time.Microsecond},
			Count: 1,
			Children: []*appgraph.CallNode{{
				Service: svc, Method: "POST", Path: "/" + string(svc), Work: work, Count: 1,
			}},
		}})
	}
	stats := func(scale float64) []telemetry.WindowStats {
		var out []telemetry.WindowStats
		for i, class := range classes {
			west := (500 + 40*float64(i)) * scale
			east := (60 + 10*float64(i)) * scale
			out = append(out,
				telemetry.WindowStats{
					Key: telemetry.MetricKey{Service: string(gateway), Class: class, Cluster: string(topology.West)},
					RPS: west, Requests: uint64(west), MeanLatency: 30 * time.Millisecond, Window: time.Second},
				telemetry.WindowStats{
					Key: telemetry.MetricKey{Service: string(gateway), Class: class, Cluster: string(topology.East)},
					RPS: east, Requests: uint64(east), MeanLatency: 30 * time.Millisecond, Window: time.Second})
		}
		return out
	}
	ctrl, err := core.NewController(top, app, core.ControllerConfig{
		DemandSmoothing: 1, Decompose: true, Forecast: forecast.Defaults(),
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, scale := range []float64{1, 1.15, 0.95, 1} {
		if _, err := ctrl.Tick(stats(scale), time.Second); err != nil {
			b.Fatal(err)
		}
	}
	return &benchSnapshotState{top: top, app: app, ctrl: ctrl, stats: stats}
}

// BenchmarkSnapshotEncode measures capturing and JSON-encoding the
// controller's warm state — the leader pays this per sync period to
// serve follower snapshot fetches, so it must stay far below one
// period.
func BenchmarkSnapshotEncode(b *testing.B) {
	s := benchSnapshot(b)
	var bytes int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := json.Marshal(s.ctrl.Snapshot())
		if err != nil {
			b.Fatal(err)
		}
		bytes = len(buf)
	}
	b.StopTimer()
	b.ReportMetric(float64(bytes), "snapshot_bytes")
}

// BenchmarkSnapshotRestore measures decoding a snapshot and installing
// it into a cold controller — the takeover path of a newly elected
// leader, on the clock between a leader death and the next fresh table.
func BenchmarkSnapshotRestore(b *testing.B) {
	s := benchSnapshot(b)
	buf, err := json.Marshal(s.ctrl.Snapshot())
	if err != nil {
		b.Fatal(err)
	}
	cold, err := core.NewController(s.top, s.app, core.ControllerConfig{
		DemandSmoothing: 1, Decompose: true, Forecast: forecast.Defaults(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var snap core.ControllerSnapshot
		if err := json.Unmarshal(buf, &snap); err != nil {
			b.Fatal(err)
		}
		if err := cold.Restore(&snap); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// The restored controller must resume warm: a tick repeating the
	// last window publishes without a single cold solve.
	if _, err := cold.Tick(s.stats(1), time.Second); err != nil {
		b.Fatal(err)
	}
	if st := cold.OptimizerStats(); st.ColdSolves != 0 {
		b.Fatalf("post-restore tick went cold: %+v", st)
	}
}

// BenchmarkEventSolve measures the event-driven reaction path end to
// end: a cluster telemetry upload whose load swing breaches the
// threshold, then the immediate re-solve it arms — the latency between
// a traffic jump and a fresh routing table, independent of the sync
// period.
func BenchmarkEventSolve(b *testing.B) {
	s := benchSnapshot(b)
	g := controlplane.NewGlobal(s.ctrl)
	// No registered clusters: this replica is trivially leader, and the
	// solve result stays local instead of being pushed anywhere.
	g.EnableHA("http://bench.invalid", controlplane.HAConfig{EventThreshold: 0.25, EventBurst: 2})
	ctx := context.Background()
	if err := g.HAStep(ctx); err != nil {
		b.Fatal(err)
	}
	h := g.Handler()
	post := func(scale float64) {
		rep := controlplane.MetricsReport{Cluster: topology.West, WindowMS: 1000, Stats: s.stats(scale)}
		body, err := json.Marshal(rep)
		if err != nil {
			b.Fatal(err)
		}
		req := httptest.NewRequest("POST", "/v1/metrics", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code/100 != 2 {
			b.Fatalf("metrics upload: status %d", rec.Code)
		}
	}
	post(1) // establish the last-seen load
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scale := 1.5
		if i%2 == 1 {
			scale = 1.0
		}
		post(scale) // >25% swing: arms the event
		// Refill the token the solve consumes; in production HAStep banks
		// one per sync period.
		g.EnableHA("http://bench.invalid", controlplane.HAConfig{EventThreshold: 0.25, EventBurst: 2})
		if !g.TryEventSolve(ctx) {
			b.Fatal("event solve did not fire")
		}
	}
}
