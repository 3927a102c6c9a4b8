package experiments

import (
	"fmt"
	"slices"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/simrun"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// AblationWaterfallThreshold sweeps the Waterfall baseline's static
// threshold fraction on the Fig. 6a scenario. It quantifies Fig. 3's
// argument end-to-end: every static threshold loses somewhere — low
// fractions over-offload (needless RTT), fractions at rated capacity
// melt down (unbounded queueing) — while SLATE's load-dependent optimum
// is a single fixed policy across the sweep.
func AblationWaterfallThreshold(opt Options) (*Figure, error) {
	scn, demand := westOverloadScenario("ablation-threshold", opt.defaults())
	// One SLATE leg — its policy does not depend on the swept fraction —
	// then one Waterfall leg per fraction.
	fracs := []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0}
	legs := []leg{{"slate", scn, slateLeg(core.ControllerConfig{}, demand)}}
	for _, frac := range fracs {
		legs = append(legs, leg{fmt.Sprintf("waterfall-%v", frac), scn, waterfallLeg(demand, frac, true)})
	}
	res, err := runLegs(legs)
	if err != nil {
		return nil, err
	}
	slateMean := ms(res[0].Mean)
	s := Series{Name: "waterfall", XLabel: "threshold fraction", YLabel: "mean latency (ms)", X: fracs}
	for _, r := range res[1:] {
		s.Y = append(s.Y, ms(r.Mean))
	}
	return &Figure{
		ID:    "ablation-threshold",
		Title: "Waterfall threshold sensitivity (Fig. 6a scenario)",
		Notes: []string{"x = threshold fraction of rated capacity; y = mean latency (ms)"},
		Series: []Series{s,
			{Name: "slate", XLabel: s.XLabel, YLabel: s.YLabel,
				X: []float64{fracs[0], fracs[len(fracs)-1]}, Y: []float64{slateMean, slateMean}}},
		Summary: map[string]float64{
			"slate_mean_ms":           slateMean,
			"waterfall_best_mean_ms":  slices.Min(s.Y),
			"waterfall_worst_mean_ms": slices.Max(s.Y),
		},
	}, nil
}

// AblationClassGranularity compares SLATE run with its true per-class
// view against SLATE forced to treat all requests as one aggregate
// class on the Fig. 6d scenario — the "traffic classification" design
// choice (paper §5): a single class misses the chance to offload only
// the heavy requests.
func AblationClassGranularity(opt Options) (*Figure, error) {
	scn, demand := twoClassScenario("ablation-classes", opt.defaults())
	res, err := runLegs([]leg{
		{"perclass", scn, slateLeg(core.ControllerConfig{}, demand)},
		{"classblind", scn, classBlindLeg(demand)},
	})
	if err != nil {
		return nil, err
	}
	perClass, blind := res[0], res[1]
	fig := &Figure{
		ID:    "ablation-classes",
		Title: "Traffic-class granularity: per-class vs class-blind optimization",
		Summary: map[string]float64{
			"perclass_mean_ms":         ms(perClass.Mean),
			"classblind_mean_ms":       ms(blind.Mean),
			"classblind_over_perclass": float64(blind.Mean) / float64(perClass.Mean),
		},
	}
	addClassMeans(fig, "perclass_mean_ms_", perClass)
	addClassMeans(fig, "classblind_mean_ms_", blind)
	return fig, nil
}

// classBlindLeg is SLATE without traffic classes: the same optimizer,
// but its app model merges L and H into a single class with blended
// service time; the plan it primes for the summed demand then serves
// both real classes as wildcard rules.
func classBlindLeg(demand core.Demand) policyFunc {
	return func(scn *simrun.Scenario) (simrun.Policy, error) {
		blind, err := core.NewController(scn.Top, mergedClassApp(), core.ControllerConfig{})
		if err != nil {
			return nil, err
		}
		blind.SetDemand(core.Demand{"all": {
			topology.West: demand["L"][topology.West] + demand["H"][topology.West],
			topology.East: demand["L"][topology.East] + demand["H"][topology.East],
		}})
		table, err := blind.Prime()
		if err != nil {
			return nil, err
		}
		return simrun.Static("slate-classblind", wildcardize(table)), nil
	}
}

// AblationStepSize sweeps the controller's MaxStep rollout bound on an
// adaptive run (no priming): small steps converge slowly but guard
// against misprediction; full steps converge in one period. This is
// the design choice behind §5's "resilience to prediction error".
func AblationStepSize(opt Options) (*Figure, error) {
	scn, _ := westOverloadScenario("ablation-step", opt.defaults())
	scn.ControlPeriod = 2 * time.Second
	steps := []float64{0.05, 0.1, 0.25, 0.5, 1.0}
	var legs []leg
	for _, step := range steps {
		legs = append(legs, leg{fmt.Sprintf("step-%v", step), scn,
			slateLeg(core.ControllerConfig{MaxStep: step, DemandSmoothing: 0.7}, nil)})
	}
	res, err := runLegs(legs)
	if err != nil {
		return nil, err
	}
	s := Series{Name: "mean-latency", XLabel: "MaxStep", YLabel: "mean latency (ms)", X: steps}
	for _, r := range res {
		s.Y = append(s.Y, ms(r.Mean))
	}
	return &Figure{
		ID:      "ablation-step",
		Title:   "Rollout step-size sensitivity (adaptive run, west overloaded)",
		Series:  []Series{s},
		Summary: map[string]float64{},
	}, nil
}

// twoClassExperimentApp returns the Fig. 6d application.
func twoClassExperimentApp() *appgraph.App {
	return appgraph.TwoClassApp(appgraph.TwoClassOptions{
		LightTime: 2 * time.Millisecond,
		HeavyTime: 20 * time.Millisecond,
		Pool:      appgraph.ReplicaPool{Replicas: 2, Concurrency: 4},
	})
}

// wildcardize rewrites every rule of a table onto the wildcard class,
// so a plan computed for a merged class applies to all real classes.
func wildcardize(t *routing.Table) *routing.Table {
	rules := make(map[routing.Key]routing.Distribution)
	for _, k := range t.Keys() {
		d, _ := t.Get(k)
		rules[routing.Key{Service: k.Service, Class: routing.AnyClass, Cluster: k.Cluster}] = d
	}
	return routing.NewTable(t.Version, rules)
}

// mergedClassApp builds the Fig. 6d app with L and H merged into one
// "all" class whose service time is the demand-weighted blend.
func mergedClassApp() *appgraph.App {
	app := twoClassExperimentApp()
	l := app.Class("L")
	h := app.Class("H")
	// Demand-weighted blend: (400*2ms + 330*20ms) / 730 ≈ 10.1ms.
	blend := time.Duration((400*float64(l.Root.Children[0].Work.MeanServiceTime) +
		330*float64(h.Root.Children[0].Work.MeanServiceTime)) / 730)
	merged := *l.Root.Children[0]
	merged.Work.MeanServiceTime = blend
	root := *l.Root
	root.Children = []*appgraph.CallNode{&merged}
	app.Classes = []*appgraph.Class{{Name: "all", Root: &root}}
	return app
}
