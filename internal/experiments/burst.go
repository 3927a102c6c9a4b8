package experiments

import (
	"fmt"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/baseline"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/simrun"
	"github.com/servicelayernetworking/slate/internal/topology"
	"github.com/servicelayernetworking/slate/internal/workload"
)

// The burst every adaptation experiment faces: west jumps from burstBase
// to burstPeak RPS at burstAt and holds it; east stays at 100 RPS;
// controllers re-plan every 2 s.
const (
	burstBase = 300.0
	burstPeak = 850.0
	burstAt   = 20 * time.Second
	burstHold = 30 * time.Second // BurstReaction's; AutoscalerInteraction holds 40 s
)

// burstScenario is the two-cluster chain under that burst, held for hold.
func burstScenario(name string, hold, duration time.Duration, seed int64) simrun.Scenario {
	return simrun.Scenario{
		Name: name,
		Top:  topology.TwoClusters(40 * time.Millisecond),
		App:  chainApp(topology.West, topology.East),
		Workload: []workload.Spec{
			workload.Burst("default", topology.West, burstBase, burstPeak, burstAt, hold),
			workload.Steady("default", topology.East, 100),
		},
		Duration:      duration,
		Warmup:        2 * time.Second,
		ControlPeriod: 2 * time.Second,
		Seed:          seed,
	}
}

// addBurstTimelines publishes, per leg, the per-window latency timeline
// and its mean over the windows of the burst, (burstAt, burstAt+hold].
func addBurstTimelines(fig *Figure, legs []leg, results []*simrun.Result, hold time.Duration) {
	for i, l := range legs {
		fig.Series = append(fig.Series, timelineSeries(l.name, "mean latency (ms)", results[i], windowMeanMs))
		if mean, ok := meanLatencyOver(results[i], burstAt, burstAt+hold); ok {
			fig.Summary[l.name+"_burst_mean_ms"] = mean
		}
	}
}

// burstLegs is BurstReaction's table: SLATE, Waterfall (thresholds sized
// for the pre-burst load), and a no-op local-only policy — the
// autoscaler stand-in that hasn't scaled yet. No controller is primed.
func burstLegs(opt Options) []leg {
	scn := burstScenario("burst", burstHold, 80*time.Second, opt.Seed)
	baseDemand := core.Demand{"default": {topology.West: burstBase, topology.East: 100}}
	return []leg{
		{"slate", scn, slateLeg(core.ControllerConfig{DemandSmoothing: 0.7}, nil)},
		{"waterfall", scn, waterfallLeg(baseDemand, waterfallFrac, false)},
		{"local-only", scn, staticLeg("local-only", baseline.LocalOnly())},
	}
}

// BurstReaction measures how quickly adaptive request routing absorbs a
// sudden load burst — the paper's §2 motivation that request routing
// reacts orders of magnitude faster than autoscaling (which needs
// "seconds to minutes" for monitoring, scaling decisions, image pull
// and warm-up). West jumps from 300 to 850 RPS for 30 s, and the
// timeline shows per-window mean latency for each leg of burstLegs.
func BurstReaction(opt Options) (*Figure, error) {
	legs := burstLegs(opt.defaults())
	results, err := runLegs(legs)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:    "burst",
		Title: "Reaction to a load burst (west 300→850→300 RPS, adaptive controllers)",
		Notes: []string{
			"burst from t=20s to t=50s; control period 2s; no controller priming",
			"x = time (s); y = per-window mean latency (ms)",
		},
		Summary: map[string]float64{},
	}
	addBurstTimelines(fig, legs, results, burstHold)
	fig.Summary["localonly_over_slate_burst"] =
		fig.Summary["local-only_burst_mean_ms"] / fig.Summary["slate_burst_mean_ms"]
	return fig, nil
}

// Scalability measures the optimizer's solve time as the problem grows
// in clusters, chain length, and traffic classes — the paper's §5
// "scalability & fast reaction" challenge ("an optimization time on the
// order of seconds for large-scale deployments is desirable"). Solve
// times are wall-clock and hence machine-dependent; the series shape
// (growth trend) is the result.
func Scalability(opt Options) (*Figure, error) {
	_ = opt.defaults()
	fig := &Figure{
		ID:    "scalability",
		Title: "Optimizer solve time vs deployment size",
		Notes: []string{
			"x = scale parameter; y = one Optimize() wall-clock ms (median of 5)",
		},
		Summary: map[string]float64{},
	}

	ring := ringTopology

	timeIt := func(top *topology.Topology, app *appgraph.App, demand core.Demand) (float64, error) {
		prob := &core.Problem{Top: top, App: app, Demand: demand,
			Profiles: core.DefaultProfiles(app, top, demand)}
		var samples []float64
		for i := 0; i < 5; i++ {
			start := time.Now()
			if _, err := prob.Optimize(uint64(i + 1)); err != nil {
				return 0, err
			}
			samples = append(samples, float64(time.Since(start))/1e6)
		}
		// median
		for i := 1; i < len(samples); i++ {
			for j := i; j > 0 && samples[j] < samples[j-1]; j-- {
				samples[j], samples[j-1] = samples[j-1], samples[j]
			}
		}
		return samples[len(samples)/2], nil
	}

	// Sweep clusters (3-service chain, 1 class).
	sc := Series{Name: "clusters", XLabel: "clusters", YLabel: "solve ms"}
	for _, n := range []int{2, 3, 4, 6, 8, 12} {
		top := ring(n)
		app := chainApp(top.ClusterIDs()...)
		demand := core.Demand{"default": {}}
		for _, c := range top.ClusterIDs() {
			demand["default"][c] = 300
		}
		ms, err := timeIt(top, app, demand)
		if err != nil {
			return nil, fmt.Errorf("scalability clusters=%d: %w", n, err)
		}
		sc.X = append(sc.X, float64(n))
		sc.Y = append(sc.Y, ms)
	}
	fig.Series = append(fig.Series, sc)
	fig.Summary["solve_ms_at_12_clusters"] = sc.Y[len(sc.Y)-1]

	// Sweep chain length (4 clusters).
	top4 := ring(4)
	ss := Series{Name: "services", XLabel: "chain services", YLabel: "solve ms"}
	for _, n := range []int{2, 4, 8, 12, 16} {
		app := appgraph.LinearChain(appgraph.ChainOptions{
			Services:        n,
			MeanServiceTime: 10 * time.Millisecond,
			Pool:            appgraph.ReplicaPool{Replicas: 2, Concurrency: 4},
			Clusters:        top4.ClusterIDs(),
		})
		demand := core.Demand{"default": {}}
		for _, c := range top4.ClusterIDs() {
			demand["default"][c] = 300
		}
		ms, err := timeIt(top4, app, demand)
		if err != nil {
			return nil, fmt.Errorf("scalability services=%d: %w", n, err)
		}
		ss.X = append(ss.X, float64(n))
		ss.Y = append(ss.Y, ms)
	}
	fig.Series = append(fig.Series, ss)
	fig.Summary["solve_ms_at_16_services"] = ss.Y[len(ss.Y)-1]

	// Sweep classes (4 clusters, 3-service chain replicated per class).
	cs := Series{Name: "classes", XLabel: "traffic classes", YLabel: "solve ms"}
	for _, n := range []int{1, 2, 4, 8, 16} {
		app := multiClassChain(n, top4.ClusterIDs())
		demand := core.Demand{}
		for k := 0; k < n; k++ {
			class := fmt.Sprintf("class-%02d", k)
			demand[class] = map[topology.ClusterID]float64{}
			for _, c := range top4.ClusterIDs() {
				demand[class][c] = 300 / float64(n)
			}
		}
		ms, err := timeIt(top4, app, demand)
		if err != nil {
			return nil, fmt.Errorf("scalability classes=%d: %w", n, err)
		}
		cs.X = append(cs.X, float64(n))
		cs.Y = append(cs.Y, ms)
	}
	fig.Series = append(fig.Series, cs)
	fig.Summary["solve_ms_at_16_classes"] = cs.Y[len(cs.Y)-1]

	// Monolithic vs decomposed control loop (n clusters × n classes):
	// steady-state tick latency and control-plane bytes per tick.
	if err := pipelineSweep(fig); err != nil {
		return nil, err
	}
	return fig, nil
}

// multiClassChain builds the 3-service chain app with n traffic classes
// of varying service demands.
func multiClassChain(n int, clusters []topology.ClusterID) *appgraph.App {
	app := appgraph.LinearChain(appgraph.ChainOptions{
		Services:        3,
		MeanServiceTime: 10 * time.Millisecond,
		Pool:            appgraph.ReplicaPool{Replicas: 2, Concurrency: 4},
		Clusters:        clusters,
	})
	base := app.Classes[0]
	app.Classes = nil
	for k := 0; k < n; k++ {
		cl := cloneClass(base, fmt.Sprintf("class-%02d", k))
		// Vary per-class cost so classes are not interchangeable.
		scale := 0.5 + float64(k%4)*0.25
		cl.Root.Walk(func(node *appgraph.CallNode) {
			node.Work.MeanServiceTime = time.Duration(float64(node.Work.MeanServiceTime) * scale)
			node.Path = fmt.Sprintf("%s/c%d", node.Path, k)
		})
		app.Classes = append(app.Classes, cl)
	}
	return app
}

func cloneClass(c *appgraph.Class, name string) *appgraph.Class {
	var cloneNode func(n *appgraph.CallNode) *appgraph.CallNode
	cloneNode = func(n *appgraph.CallNode) *appgraph.CallNode {
		cp := *n
		cp.Children = nil
		for _, ch := range n.Children {
			cp.Children = append(cp.Children, cloneNode(ch))
		}
		return &cp
	}
	return &appgraph.Class{Name: name, Root: cloneNode(c.Root)}
}
