package experiments

import (
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/controlplane"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// ringTopology builds n clusters on a ring; RTT grows with hop count.
func ringTopology(n int) *topology.Topology {
	b := topology.NewBuilder(topology.DefaultEgressPerGB)
	ids := make([]topology.ClusterID, n)
	for i := 0; i < n; i++ {
		ids[i] = topology.ClusterID(fmt.Sprintf("c%02d", i))
		b.AddCluster(ids[i], "region")
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			hops := j - i
			if n-hops < hops {
				hops = n - hops
			}
			b.SetRTT(ids[i], ids[j], time.Duration(10+20*hops)*time.Millisecond)
		}
	}
	return b.MustBuild()
}

// starApp builds a decomposable app: one shared ingress gateway plus n
// traffic classes, each calling its own disjoint two-service chain. The
// gateway is touched only at class roots (pinned demand), so the
// sharded optimizer splits the problem into one subproblem per class.
func starApp(classes int, clusters []topology.ClusterID) *appgraph.App {
	app := &appgraph.App{Name: "star", Services: map[appgraph.ServiceID]*appgraph.Service{}}
	const gateway appgraph.ServiceID = "gateway"
	front := appgraph.ReplicaPool{Replicas: 4, Concurrency: 8}
	pool := appgraph.ReplicaPool{Replicas: 2, Concurrency: 4}
	app.Services[gateway] = &appgraph.Service{ID: gateway, Placement: appgraph.Uniform(front, clusters...)}
	work := appgraph.Work{MeanServiceTime: 10 * time.Millisecond, RequestBytes: 1 << 10, ResponseBytes: 4 << 10}
	for k := 0; k < classes; k++ {
		a := appgraph.ServiceID(fmt.Sprintf("svc-%02d-a", k))
		b := appgraph.ServiceID(fmt.Sprintf("svc-%02d-b", k))
		app.Services[a] = &appgraph.Service{ID: a, Placement: appgraph.Uniform(pool, clusters...)}
		app.Services[b] = &appgraph.Service{ID: b, Placement: appgraph.Uniform(pool, clusters...)}
		root := &appgraph.CallNode{
			Service: gateway, Method: "POST", Path: fmt.Sprintf("/in/%d", k),
			Work:  appgraph.Work{MeanServiceTime: 100 * time.Microsecond},
			Count: 1,
			Children: []*appgraph.CallNode{{
				Service: a, Method: "POST", Path: "/a", Work: work, Count: 1,
				Children: []*appgraph.CallNode{{
					Service: b, Method: "POST", Path: "/b", Work: work, Count: 1,
				}},
			}},
		}
		app.Classes = append(app.Classes, &appgraph.Class{
			Name: fmt.Sprintf("class-%02d", k), Root: root,
		})
	}
	return app
}

// wireProbe accounts control-plane bytes per tick for both strategies
// using the real wire structs: the "monolithic" strategy broadcasts the
// full table to every cluster and ingests full telemetry reports; the
// pipeline sends per-cluster patches and delta reports.
type wireProbe struct {
	prevSent  map[topology.ClusterID]*routing.Table
	prevStats map[topology.ClusterID][]telemetry.WindowStats
	epoch     uint64
}

func newWireProbe() *wireProbe {
	return &wireProbe{
		prevSent:  map[topology.ClusterID]*routing.Table{},
		prevStats: map[topology.ClusterID][]telemetry.WindowStats{},
	}
}

func (w *wireProbe) measure(tab *routing.Table, statsByCluster map[topology.ClusterID][]telemetry.WindowStats, clusters []topology.ClusterID) (mono, dec int64, err error) {
	w.epoch++
	fullTab, err := json.Marshal(tab)
	if err != nil {
		return 0, 0, err
	}
	mono += int64(len(fullTab)) * int64(len(clusters))
	for _, c := range clusters {
		cur := statsByCluster[c]
		full, err := json.Marshal(controlplane.MetricsReport{
			Cluster: c, WindowMS: 1000, Epoch: w.epoch, Stats: cur,
		})
		if err != nil {
			return 0, 0, err
		}
		mono += int64(len(full))

		desired := tab.Restrict(c)
		dec += int64(routing.MakePatch(w.prevSent[c], desired).WireBytes())
		w.prevSent[c] = desired

		if w.prevStats[c] == nil {
			dec += int64(len(full)) // first report is always full
		} else {
			changed, removed := telemetry.DeltaReport(w.prevStats[c], cur, 1e-9)
			delta, err := json.Marshal(controlplane.MetricsReport{
				Cluster: c, WindowMS: 1000, Delta: true, Epoch: w.epoch,
				Stats: changed, Removed: removed,
			})
			if err != nil {
				return 0, 0, err
			}
			dec += int64(len(delta))
		}
		w.prevStats[c] = cur
	}
	return mono, dec, nil
}

// pipelineResult holds one size point of the monolithic-vs-decomposed
// control-loop comparison.
type pipelineResult struct {
	monoMS, decMS       float64 // median steady tick wall ms
	monoBytes, decBytes float64 // mean control-plane bytes per steady tick
	skipRate            float64 // skipped/(skipped+solved) over steady ticks
	shards              float64
	perturbSolves       float64 // sub-solves triggered by one class change
}

// runPipelineSize drives two controllers — one planning the whole app
// as a single shard ("monolithic"), one decomposed — through identical
// telemetry: a warm-up tick, steady
// ticks with unchanged stats, and one perturbed tick touching a single
// class. n is both the cluster count and the class count.
func runPipelineSize(n, steadyTicks int) (*pipelineResult, error) {
	top := ringTopology(n)
	app := starApp(n, top.ClusterIDs())
	const rps = 200.0
	demand := core.Demand{}
	for _, cl := range app.Classes {
		demand[cl.Name] = map[topology.ClusterID]float64{}
		for _, c := range top.ClusterIDs() {
			demand[cl.Name][c] = rps
		}
	}

	steady := pipelineStats(app, top.ClusterIDs(), rps)
	byCluster := map[topology.ClusterID][]telemetry.WindowStats{}
	for _, ws := range steady {
		c := topology.ClusterID(ws.Key.Cluster)
		byCluster[c] = append(byCluster[c], ws)
	}

	newCtrl := func(decompose bool) (*core.Controller, error) {
		ctrl, err := core.NewController(top, app, core.ControllerConfig{
			DemandSmoothing: 1, Decompose: decompose,
		})
		if err != nil {
			return nil, err
		}
		ctrl.SetDemand(demand)
		if _, err := ctrl.Prime(); err != nil {
			return nil, err
		}
		return ctrl, nil
	}
	mono, err := newCtrl(false)
	if err != nil {
		return nil, fmt.Errorf("pipeline n=%d monolithic: %w", n, err)
	}
	dec, err := newCtrl(true)
	if err != nil {
		return nil, fmt.Errorf("pipeline n=%d decomposed: %w", n, err)
	}

	probe := newWireProbe()
	tick := func(ctrl *core.Controller, stats []telemetry.WindowStats) (float64, *routing.Table, error) {
		start := time.Now()
		tab, err := ctrl.Tick(stats, time.Second)
		return float64(time.Since(start)) / 1e6, tab, err
	}

	// Warm-up tick: converges the demand EWMA and seeds the wire probe
	// so steady ticks measure the incremental steady state.
	if _, _, err := tick(mono, steady); err != nil {
		return nil, err
	}
	_, tab, err := tick(dec, steady)
	if err != nil {
		return nil, err
	}
	if _, _, err := probe.measure(tab, byCluster, top.ClusterIDs()); err != nil {
		return nil, err
	}

	res := &pipelineResult{shards: float64(dec.OptimizerStats().Shards)}
	before := dec.OptimizerStats()
	var monoMS, decMS []float64
	for t := 0; t < steadyTicks; t++ {
		ms, _, err := tick(mono, steady)
		if err != nil {
			return nil, err
		}
		monoMS = append(monoMS, ms)
		ms, tab, err := tick(dec, steady)
		if err != nil {
			return nil, err
		}
		decMS = append(decMS, ms)
		mb, db, err := probe.measure(tab, byCluster, top.ClusterIDs())
		if err != nil {
			return nil, err
		}
		res.monoBytes += float64(mb) / float64(steadyTicks)
		res.decBytes += float64(db) / float64(steadyTicks)
	}
	after := dec.OptimizerStats()
	skipped := float64(after.SkippedSolves - before.SkippedSolves)
	solved := float64(after.SubSolves - before.SubSolves)
	if skipped+solved > 0 {
		res.skipRate = skipped / (skipped + solved)
	}
	res.monoMS = median(monoMS)
	res.decMS = median(decMS)

	// Perturbed tick: one class's demand shifts in one cluster; only
	// that class's subproblem should re-solve.
	perturbed := pipelineStats(app, top.ClusterIDs(), rps)
	perturbed[0].RPS *= 1.5
	perturbed[0].Requests = uint64(perturbed[0].RPS)
	if _, _, err := tick(dec, perturbed); err != nil {
		return nil, err
	}
	res.perturbSolves = float64(dec.OptimizerStats().SubSolves - after.SubSolves)
	return res, nil
}

// pipelineStats synthesizes one telemetry window: every class reports
// rps at the gateway in every cluster.
func pipelineStats(app *appgraph.App, clusters []topology.ClusterID, rps float64) []telemetry.WindowStats {
	var stats []telemetry.WindowStats
	for _, cl := range app.Classes {
		for _, c := range clusters {
			stats = append(stats, telemetry.WindowStats{
				Key: telemetry.MetricKey{
					Service: string(app.FrontendService()),
					Class:   cl.Name,
					Cluster: string(c),
				},
				Window:      time.Second,
				Requests:    uint64(rps),
				RPS:         rps,
				MeanLatency: 5 * time.Millisecond,
				P50:         4 * time.Millisecond,
				P99:         12 * time.Millisecond,
			})
		}
	}
	return stats
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/2]
}

// pipelineSweep appends the one-shard-vs-decomposed control-loop series
// to the scalability figure: per-tick wall time and control-plane bytes
// as clusters and classes grow together (n clusters × n classes). Both
// legs skip a shard whose inputs are unchanged, so steady tick time is
// close; patches/deltas put the wire series well below full-table
// fan-out at scale.
func pipelineSweep(fig *Figure) error {
	const steadyTicks = 5
	tm := Series{Name: "tick-ms-monolithic", XLabel: "clusters = classes", YLabel: "steady tick ms (median)"}
	td := Series{Name: "tick-ms-decomposed", XLabel: "clusters = classes", YLabel: "steady tick ms (median)"}
	bm := Series{Name: "wire-bytes-monolithic", XLabel: "clusters = classes", YLabel: "bytes per steady tick"}
	bd := Series{Name: "wire-bytes-decomposed", XLabel: "clusters = classes", YLabel: "bytes per steady tick"}
	for _, n := range []int{2, 4, 8} {
		r, err := runPipelineSize(n, steadyTicks)
		if err != nil {
			return fmt.Errorf("scalability pipeline n=%d: %w", n, err)
		}
		x := float64(n)
		tm.X, tm.Y = append(tm.X, x), append(tm.Y, r.monoMS)
		td.X, td.Y = append(td.X, x), append(td.Y, r.decMS)
		bm.X, bm.Y = append(bm.X, x), append(bm.Y, r.monoBytes)
		bd.X, bd.Y = append(bd.X, x), append(bd.Y, r.decBytes)
		if n == 8 {
			fig.Summary["tick_ms_monolithic_at_8x8"] = r.monoMS
			fig.Summary["tick_ms_decomposed_at_8x8"] = r.decMS
			fig.Summary["wire_bytes_monolithic_at_8x8"] = r.monoBytes
			fig.Summary["wire_bytes_decomposed_at_8x8"] = r.decBytes
			fig.Summary["subproblem_skip_rate_steady"] = r.skipRate
			fig.Summary["subproblems_at_8x8"] = r.shards
			fig.Summary["subproblem_solves_perturb"] = r.perturbSolves
		}
	}
	fig.Series = append(fig.Series, tm, td, bm, bd)
	return nil
}
