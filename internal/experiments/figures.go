package experiments

import (
	"fmt"
	"math"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/queuemodel"
	"github.com/servicelayernetworking/slate/internal/simrun"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// waterfallFrac sizes the Waterfall baseline's static per-pool
// threshold at 95% of rated saturation throughput. Traffic Director's
// RATE balancing mode spills at the backend's operator-rated max RPS
// (its rated saturation capacity); its utilization mode defaults to
// 80%. We sit between the two; the threshold-sensitivity ablation
// (AblationWaterfallThreshold) sweeps the full range — at 100% the
// baseline collapses (9.5x), at 60-80% it over-offloads.
const waterfallFrac = 0.95

// Fig3 regenerates the paper's Fig. 3 quantitatively: the latency cost
// of static capacity thresholds. Using the M/M/c model of one west pool
// (capacity 800 std RPS) with a fixed east background load, it plots
// mean request latency vs offered west load for a conservative
// threshold (offloads too early, paying network latency needlessly), an
// aggressive threshold (keeps traffic local past the point where
// offloading wins), and the load-dependent optimum SLATE computes.
func Fig3(opt Options) (*Figure, error) {
	_ = opt.defaults()
	const (
		rtt      = 40 * time.Millisecond
		eastBase = 100.0
	)
	west := queuemodel.MMc{Servers: 8, Mu: 100} // 10ms services
	east := queuemodel.MMc{Servers: 8, Mu: 100}

	meanLatency := func(load, threshold float64) float64 {
		kept := math.Min(load, threshold)
		remote := load - kept
		eastLoad := eastBase + remote
		if kept >= 0.999*west.Capacity() || eastLoad >= 0.999*east.Capacity() {
			return math.Inf(1)
		}
		lat := kept * west.SojournSeconds(kept)
		lat += remote * (rtt.Seconds() + east.SojournSeconds(eastLoad))
		return lat / load
	}
	optimal := func(load float64) float64 {
		best := math.Inf(1)
		for t := 50.0; t <= 760; t += 2 {
			if v := meanLatency(load, t); v < best {
				best = v
			}
		}
		return best
	}

	conservative, aggressive := 400.0, 760.0
	fig := &Figure{
		ID:    "fig3",
		Title: "Limitation of static capacity thresholds (model-based)",
		Notes: []string{
			"west pool M/M/8 mu=100 (cap 800), east background 100 RPS, RTT 40ms",
			fmt.Sprintf("conservative threshold %v RPS, aggressive threshold %v RPS", conservative, aggressive),
		},
		Summary: map[string]float64{},
	}
	mk := func(name string, f func(load float64) float64) Series {
		s := Series{Name: name, XLabel: "west load (RPS)", YLabel: "mean latency (ms)"}
		for load := 100.0; load <= 740; load += 40 {
			v := f(load)
			if math.IsInf(v, 1) {
				continue
			}
			s.X = append(s.X, load)
			s.Y = append(s.Y, v*1000)
		}
		return s
	}
	fig.Series = append(fig.Series,
		mk("conservative-threshold", func(l float64) float64 { return meanLatency(l, conservative) }),
		mk("aggressive-threshold", func(l float64) float64 { return meanLatency(l, aggressive) }),
		mk("slate-optimal", optimal),
	)
	// Quantify the two failure modes at illustrative operating points.
	fig.Summary["conservative_penalty_at_600rps_ms"] =
		(meanLatency(600, conservative) - optimal(600)) * 1000
	fig.Summary["aggressive_penalty_at_740rps_ms"] =
		(meanLatency(740, aggressive) - optimal(740)) * 1000
	return fig, nil
}

// Fig4 regenerates the paper's Fig. 4: the empirical cross-cluster
// routing threshold calculated by SLATE as a function of west load, for
// inter-cluster network latencies of 5, 25 and 50 ms (east cluster held
// at 100 RPS). The threshold is the RPS SLATE keeps in the west
// cluster; the 100%-local-serving reference is the line y = x.
func Fig4(opt Options) (*Figure, error) {
	opt = opt.defaults()
	fig := &Figure{
		ID:    "fig4",
		Title: "Empirical routing threshold vs load and network latency",
		Notes: []string{
			"3-service chain, pools M/M/8 at 10ms (cap 800/cluster), east load 100 RPS",
			"threshold = RPS of west-arriving traffic SLATE serves in west",
		},
		Summary: map[string]float64{},
	}
	rtts := []time.Duration{5 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond}
	var loads []float64
	for load := 100.0; load <= 1000; load += 50 {
		loads = append(loads, load)
	}
	// Fine-grained PWL breakpoints give the threshold curve its
	// resolution (the optimizer's kept-local load lands on a
	// breakpoint of the linearized latency curve).
	var fracs []float64
	for f := 0.05; f < 0.951; f += 0.025 {
		fracs = append(fracs, f)
	}
	// Every (rtt, load) grid cell is an independent one-shot solve;
	// sweep them concurrently into indexed slots, then assemble the
	// series in deterministic order.
	kept := make([][]float64, len(rtts))
	for i := range kept {
		kept[i] = make([]float64, len(loads))
	}
	tops := make([]*topology.Topology, len(rtts))
	apps := make([]*appgraph.App, len(rtts))
	for i, rtt := range rtts {
		tops[i] = topology.TwoClusters(rtt)
		apps[i] = chainApp(topology.West, topology.East)
	}
	err := runConcurrently(len(rtts)*len(loads), func(i int) error {
		ri, li := i/len(loads), i%len(loads)
		load := loads[li]
		demand := core.Demand{"default": {topology.West: load, topology.East: 100}}
		prob := &core.Problem{
			Top: tops[ri], App: apps[ri], Demand: demand,
			Profiles: core.DefaultProfiles(apps[ri], tops[ri], demand),
			Config:   core.Config{BreakFracs: fracs},
		}
		plan, err := prob.Optimize(1)
		if err != nil {
			return fmt.Errorf("fig4 rtt=%v load=%v: %w", rtts[ri], load, err)
		}
		kept[ri][li] = plan.Table.Lookup("svc-1", "default", topology.West).Weight(topology.West) * load
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ri, rtt := range rtts {
		s := Series{
			Name:   fmt.Sprintf("rtt-%dms", rtt.Milliseconds()),
			XLabel: "load on west cluster (req/sec)",
			YLabel: "threshold (RPS kept local)",
			X:      loads,
			Y:      kept[ri],
		}
		fig.Series = append(fig.Series, s)
		// Offload onset: the first load where kept < offered.
		for i := range s.X {
			if s.Y[i] < s.X[i]-1 {
				fig.Summary[fmt.Sprintf("offload_onset_rps_rtt%dms", rtt.Milliseconds())] = s.X[i]
				break
			}
		}
	}
	return fig, nil
}

// westOverloadScenario is the Fig. 6a setting, shared with the threshold
// and step-size ablations: the 3-service chain on two clusters 40 ms
// apart, west offered 900 RPS against a capacity of 800, east 100.
func westOverloadScenario(name string, opt Options) (simrun.Scenario, core.Demand) {
	demand := core.Demand{"default": {topology.West: 900, topology.East: 100}}
	return opt.scenario(name, topology.TwoClusters(40*time.Millisecond), chainApp(topology.West, topology.East),
		steady("default", demand["default"])), demand
}

// Fig6a regenerates the paper's Fig. 6a ("how much to route"): latency
// CDF of SLATE vs Waterfall when the west cluster is overloaded, on the
// two-cluster chain microbenchmark.
func Fig6a(opt Options) (*Figure, error) {
	scn, demand := westOverloadScenario("fig6a", opt.defaults())
	cmp, err := runPair(scn, demand, core.ControllerConfig{Decompose: true}, waterfallFrac)
	if err != nil {
		return nil, err
	}
	fig := pairFigure("fig6a", "How much to route: latency CDF, west overloaded (900 vs cap 760)", cmp,
		"2 clusters, RTT 40ms, 3-service chain at 10ms, west 900 RPS / east 100 RPS",
		fmt.Sprintf("SLATE mean %v p99 %v; Waterfall mean %v p99 %v",
			cmp.SLATE.Mean, cmp.SLATE.P99, cmp.Baseline.Mean, cmp.Baseline.P99))
	fig.Summary["p99_latency_ratio_waterfall_over_slate"] = cmp.P99Ratio
	return fig, nil
}

// Fig6b regenerates the paper's Fig. 6b ("which cluster"): the real GCP
// topology (OR, UT, IOW, SC) with OR and IOW overloaded. Waterfall
// greedily spills both into UT (nearest to each) and saturates it;
// SLATE's global matching also uses SC.
func Fig6b(opt Options) (*Figure, error) {
	opt = opt.defaults()
	top := topology.GCPTopology()
	app := chainApp(top.ClusterIDs()...)
	// OR and IOW offered 1090 RPS each: with thresholds at 760, each
	// spills 330 to UT (nearest to both), filling UT exactly to its
	// threshold while SC idles at 100 RPS — the paper's Fig. 5b story.
	demand := core.Demand{"default": {
		topology.OR: 1090, topology.UT: 100, topology.IOW: 1090, topology.SC: 100,
	}}
	scn := opt.scenario("fig6b", top, app, steady("default", demand["default"]))
	cmp, err := runPair(scn, demand, core.ControllerConfig{Decompose: true}, waterfallFrac)
	if err != nil {
		return nil, err
	}
	fig := pairFigure("fig6b", "Which cluster: latency CDF, OR and IOW overloaded on the GCP topology", cmp,
		"GCP RTTs: OR-UT 30, UT-IOW 20, IOW-SC 35, OR-SC 66, OR-IOW 37 (ms)",
		"demand: OR 1090, IOW 1090, UT 100, SC 100 RPS; per-cluster chain cap 800",
		fmt.Sprintf("SLATE mean %v p99 %v; Waterfall mean %v p99 %v",
			cmp.SLATE.Mean, cmp.SLATE.P99, cmp.Baseline.Mean, cmp.Baseline.P99))
	fig.Summary["p99_latency_ratio_waterfall_over_slate"] = cmp.P99Ratio
	return fig, nil
}

// Fig6c regenerates the paper's Fig. 6c ("where in the topology"): the
// anomaly-detection application FR → MP → DB where the DB is absent in
// west and the DB→MP response is ~10× the MP→FR response. Waterfall
// (with locality failover for the missing DB) crosses clusters at
// MP→DB, shipping the large response; SLATE, optimizing cost jointly
// with latency, moves the cut to FR→MP (paper: 11.6× less egress).
// West's MP pool is degraded (1 replica vs 3 in east), so multi-hop
// routing also wins on latency by offloading at FR before requests hit
// the degraded pool.
func Fig6c(opt Options) (*Figure, error) {
	opt = opt.defaults()
	top := topology.TwoClusters(40 * time.Millisecond)
	app := appgraph.AnomalyDetection(appgraph.AnomalyOptions{
		Clusters:    []topology.ClusterID{topology.West, topology.East},
		DBClusters:  []topology.ClusterID{topology.East},
		ProcessTime: 8 * time.Millisecond,
		QueryTime:   4 * time.Millisecond,
		Pool:        appgraph.ReplicaPool{Replicas: 3, Concurrency: 4},
	})
	// Degrade west's MP (the paper's degraded cluster): 1/3 the replicas.
	app.Services[appgraph.AnomalyMP].Placement[topology.West] = appgraph.ReplicaPool{Replicas: 1, Concurrency: 4}
	demand := core.Demand{"detect": {topology.West: 600, topology.East: 100}}
	scn := opt.scenario("fig6c", top, app, steady("detect", demand["detect"]))
	// SLATE jointly optimizes latency and egress cost. The cost weight
	// makes $1/s of egress equal 10^4 request-seconds/s of latency —
	// an administrator that values bandwidth cost (paper §4.1).
	slateCfg := core.ControllerConfig{Optimizer: core.Config{LatencyWeight: 1, CostWeight: 1e4}, Decompose: true}
	cmp, err := runPair(scn, demand, slateCfg, waterfallFrac)
	if err != nil {
		return nil, err
	}
	fig := pairFigure("fig6c", "Where to route: anomaly detection, DB absent in west (multi-hop)", cmp,
		"FR→MP→DB; DB response 1MB ≈ 10× MP response; west MP degraded to 1 replica",
		"west 600 RPS / east 100 RPS, RTT 40ms; SLATE cost-aware (CostWeight 1e4)",
		fmt.Sprintf("egress: SLATE %.1f MB/s vs Waterfall %.1f MB/s",
			float64(cmp.SLATE.EgressBytes)/cmp.SLATE.MeasuredWindow.Seconds()/1e6,
			float64(cmp.Baseline.EgressBytes)/cmp.Baseline.MeasuredWindow.Seconds()/1e6))
	fig.Summary["egress_ratio_waterfall_over_slate"] = cmp.EgressRatio
	fig.Summary["egress_cost_ratio"] = cmp.Baseline.EgressCost / math.Max(cmp.SLATE.EgressCost, 1e-12)
	return fig, nil
}

// twoClassScenario is the Fig. 6d setting, shared with the class
// granularity ablation: one worker service with light (L) and heavy (H)
// classes on two clusters, west overloaded by H volume.
func twoClassScenario(name string, opt Options) (simrun.Scenario, core.Demand) {
	demand := core.Demand{
		"L": {topology.West: 400, topology.East: 50},
		"H": {topology.West: 330, topology.East: 50},
	}
	return opt.scenario(name, topology.TwoClusters(30*time.Millisecond), twoClassExperimentApp(),
		append(steady("L", demand["L"]), steady("H", demand["H"])...)), demand
}

// Fig6d regenerates the paper's Fig. 6d ("which subset of requests"):
// overload driven by H volume. Waterfall offloads the same fraction of
// both classes; SLATE offloads a smaller number of only-H requests.
func Fig6d(opt Options) (*Figure, error) {
	scn, demand := twoClassScenario("fig6d", opt.defaults())
	cmp, err := runPair(scn, demand, core.ControllerConfig{Decompose: true}, waterfallFrac)
	if err != nil {
		return nil, err
	}
	fig := pairFigure("fig6d", "Which subset: two traffic classes (H ≈ 10× L compute), H-driven overload", cmp,
		"worker pool M/M/8; west L 400 + H 330 RPS ⇒ 92% utilization; RTT 30ms",
		fmt.Sprintf("SLATE mean %v; Waterfall mean %v", cmp.SLATE.Mean, cmp.Baseline.Mean))
	// Per-class means document the mechanism: L should stay fast under
	// SLATE while Waterfall taxes it with offloads.
	addClassMeans(fig, "slate_mean_ms_class_", cmp.SLATE)
	addClassMeans(fig, "waterfall_mean_ms_class_", cmp.Baseline)
	return fig, nil
}

// Headline computes the paper's abstract-level claims from the Fig. 6
// scenarios: SLATE outperforms Waterfall "by up to 3.5× in average
// latency" (max mean-latency ratio across scenarios) and "reduces
// egress bandwidth cost by up to 11.6×" (Fig. 6c).
func Headline(opt Options) (*Figure, error) {
	fig := &Figure{
		ID:      "headline",
		Title:   "Headline claims: max latency and egress improvements over Waterfall",
		Summary: map[string]float64{},
	}
	// The four sub-figures are independent paired runs; sweep them
	// concurrently, then fold the summaries in deterministic order.
	entries := []struct {
		id string
		f  func(Options) (*Figure, error)
	}{{"fig6a", Fig6a}, {"fig6b", Fig6b}, {"fig6c", Fig6c}, {"fig6d", Fig6d}}
	subs := make([]*Figure, len(entries))
	err := runConcurrently(len(entries), func(i int) error {
		sub, err := entries[i].f(opt)
		if err != nil {
			return fmt.Errorf("%s: %w", entries[i].id, err)
		}
		subs[i] = sub
		return nil
	})
	if err != nil {
		return nil, err
	}
	var maxLat float64
	for i, e := range entries {
		sub := subs[i]
		if r := sub.Summary["mean_latency_ratio_waterfall_over_slate"]; r > maxLat {
			maxLat = r
		}
		fig.Summary["latency_ratio_"+e.id] = sub.Summary["mean_latency_ratio_waterfall_over_slate"]
		if e.id == "fig6c" {
			fig.Summary["egress_ratio_fig6c"] = sub.Summary["egress_ratio_waterfall_over_slate"]
		}
	}
	fig.Summary["max_mean_latency_ratio"] = maxLat
	fig.Notes = append(fig.Notes,
		"paper: up to 3.5x average latency, 11.6x egress cost vs Waterfall")
	return fig, nil
}

// All returns every experiment keyed by ID.
func All() map[string]func(Options) (*Figure, error) {
	return map[string]func(Options) (*Figure, error){
		"fig3":               Fig3,
		"fig4":               Fig4,
		"fig6a":              Fig6a,
		"fig6b":              Fig6b,
		"fig6c":              Fig6c,
		"fig6d":              Fig6d,
		"headline":           Headline,
		"ablation-threshold": AblationWaterfallThreshold,
		"ablation-classes":   AblationClassGranularity,
		"ablation-step":      AblationStepSize,
		"burst":              BurstReaction,
		"scalability":        Scalability,
		"autoscaler":         AutoscalerInteraction,
		"chaos":              Chaos,
		"hachaos":            HAChaos,
		"pardes":             ParallelDES,
		"regret":             Regret,
		"pardes-1m":          ParallelDES1M,
		"gapcurve":           GapCurve,
	}
}
