package experiments

import (
	"fmt"
	"time"

	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/forecast"
	"github.com/servicelayernetworking/slate/internal/scenario"
	"github.com/servicelayernetworking/slate/internal/simrun"
	"github.com/servicelayernetworking/slate/internal/topology"
	"github.com/servicelayernetworking/slate/internal/workload"
)

// regretLegs are the controller variants regret-scored against the
// clairvoyant oracle, in presentation order.
var regretLegs = []string{"reactive", "robust", "predictive", "robust+predictive"}

// regretMargin is the uncertainty half-width the robust legs (and the
// adversarial walk's box corners) use.
const regretMargin = 0.25

// Regret runs the stress suite (flash crowd, adversarial demand walk,
// diurnal swing, correlated multi-cluster surge — see internal/scenario)
// under four controllers — reactive (plain SLATE), robust (box
// uncertainty set, margin 25%), predictive (Holt-Winters forecast,
// season = one diurnal cycle), and robust+predictive — plus the
// clairvoyant oracle that re-optimizes each window for the true
// upcoming demand. For every controller it reports worst-case and mean
// per-window latency regret (window mean latency minus the oracle's, in
// ms). Scenario durations are fixed by the stress suite; Options only
// contributes the seed.
func Regret(opt Options) (*Figure, error) {
	opt = opt.defaults()
	scns := scenario.StressScenarios(opt.Seed, regretMargin)

	fig := &Figure{
		ID:    "regret",
		Title: "Latency regret vs clairvoyant under demand uncertainty",
		Notes: []string{
			fmt.Sprintf("robust legs: box uncertainty set, margin %.0f%%; predictive legs: Holt-Winters, season 12 windows", regretMargin*100),
			"regret = per-window mean latency minus the clairvoyant oracle's, post-warmup",
			"x = time (s); y = regret (ms); series shown for flash-crowd and adversarial-walk",
		},
		Summary: map[string]float64{},
	}

	// All (scenario × leg) runs plus one clairvoyant run per scenario are
	// independent; flatten them into one concurrent batch. Arrival
	// processes are seed-paired, so every leg of a scenario faces the
	// identical workload realization.
	type job struct {
		scn int
		leg string // "" = clairvoyant
	}
	var jobs []job
	for si := range scns {
		jobs = append(jobs, job{si, ""})
		for _, leg := range regretLegs {
			jobs = append(jobs, job{si, leg})
		}
	}
	results := make([]*simrun.Result, len(jobs))
	err := runConcurrently(len(jobs), func(i int) error {
		scn := scns[jobs[i].scn]
		pol, err := regretPolicy(&scn, jobs[i].leg)
		if err != nil {
			return err
		}
		res, err := simrun.Run(scn, pol)
		if err != nil {
			return fmt.Errorf("regret %s/%s: %w", scn.Name, pol.Name(), err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	byKey := make(map[string]*simrun.Result, len(jobs))
	for i, j := range jobs {
		leg := j.leg
		if leg == "" {
			leg = "clairvoyant"
		}
		byKey[scns[j.scn].Name+"/"+leg] = results[i]
	}

	for _, scn := range scns {
		oracle := byKey[scn.Name+"/clairvoyant"]
		for _, leg := range regretLegs {
			res := byKey[scn.Name+"/"+leg]
			series, worst, mean := regretSeries(scn, res, oracle)
			fig.Summary[scn.Name+"/"+leg+"_worst_regret_ms"] = worst
			fig.Summary[scn.Name+"/"+leg+"_mean_regret_ms"] = mean
			if scn.Name == "flash-crowd" || scn.Name == "adversarial-walk" {
				series.Name = scn.Name + "/" + leg
				fig.Series = append(fig.Series, series)
			}
		}
		fig.Summary[scn.Name+"/clairvoyant_mean_ms"] = float64(oracle.Mean) / 1e6
	}
	return fig, nil
}

// regretPolicy builds the controller for one leg ("" = clairvoyant).
func regretPolicy(scn *simrun.Scenario, leg string) (simrun.Policy, error) {
	if leg == "" {
		return simrun.Clairvoyant(scn, core.Config{}), nil
	}
	cfg := core.ControllerConfig{DemandSmoothing: 0.7}
	switch leg {
	case "reactive":
	case "robust":
		cfg.Optimizer.DemandMargin = regretMargin
	case "predictive":
		cfg.Forecast = regretForecast()
	case "robust+predictive":
		cfg.Optimizer.DemandMargin = regretMargin
		cfg.Forecast = regretForecast()
	default:
		return nil, fmt.Errorf("regret: unknown leg %q", leg)
	}
	ctrl, err := core.NewController(scn.Top, scn.App, cfg)
	if err != nil {
		return nil, err
	}
	// Prime every leg from the schedule's t=0 rates so regret measures
	// steady-state response to surprises, not cold-start convergence.
	ctrl.SetDemand(initialDemand(scn.Workload))
	return simrun.SLATE(ctrl, true), nil
}

// regretForecast tunes the predictive legs: Holt-Winters with a season
// of 12 control windows — one diurnal cycle of the stress suite. On the
// non-seasonal scenarios the seasonal term learns ≈0 and the controller
// degrades gracefully to Holt (the max-merge with the reactive estimate
// bounds the downside of any misforecast).
func regretForecast() forecast.Config {
	return forecast.Config{Alpha: 0.5, Beta: 0.3, Gamma: 0.3, SeasonLength: 12}
}

// initialDemand reads each stream's scheduled rate at t=0.
func initialDemand(specs []workload.Spec) core.Demand {
	d := core.Demand{}
	for _, spec := range specs {
		rate := spec.RateAt(0)
		if rate <= 0 {
			continue
		}
		if d[spec.Class] == nil {
			d[spec.Class] = map[topology.ClusterID]float64{}
		}
		d[spec.Class][spec.Cluster] += rate
	}
	return d
}

// regretSeries aligns a leg's timeline with the oracle's (same scenario,
// same seed, same control period ⇒ same window boundaries) and returns
// the per-window regret curve plus its worst case and mean over the
// post-warmup windows.
func regretSeries(scn simrun.Scenario, res, oracle *simrun.Result) (Series, float64, float64) {
	s := Series{XLabel: "time (s)", YLabel: "regret (ms)"}
	n := len(res.Timeline)
	if len(oracle.Timeline) < n {
		n = len(oracle.Timeline)
	}
	worst := 0.0
	sum := 0.0
	count := 0
	for i := 0; i < n; i++ {
		p, q := res.Timeline[i], oracle.Timeline[i]
		if p.At <= scn.Warmup {
			continue
		}
		regret := float64(p.Mean-q.Mean) / float64(time.Millisecond)
		s.X = append(s.X, p.At.Seconds())
		s.Y = append(s.Y, regret)
		if regret > worst || count == 0 {
			worst = regret
		}
		sum += regret
		count++
	}
	mean := 0.0
	if count > 0 {
		mean = sum / float64(count)
	}
	return s, worst, mean
}
