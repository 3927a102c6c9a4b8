package experiments

import (
	"fmt"

	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/forecast"
	"github.com/servicelayernetworking/slate/internal/scenario"
	"github.com/servicelayernetworking/slate/internal/simrun"
	"github.com/servicelayernetworking/slate/internal/topology"
	"github.com/servicelayernetworking/slate/internal/workload"
)

// regretLegs are the controller variants regret-scored against the
// clairvoyant oracle, in presentation order: reactive is plain SLATE,
// robust plans for a box uncertainty set of regretMargin, predictive
// for a Holt-Winters forecast.
var regretLegs = []struct {
	name               string
	robust, predictive bool
}{
	{name: "reactive"},
	{name: "robust", robust: true},
	{name: "predictive", predictive: true},
	{name: "robust+predictive", robust: true, predictive: true},
}

// regretMargin is the uncertainty half-width the robust legs (and the
// adversarial walk's box corners) use.
const regretMargin = 0.25

// Regret runs the stress suite (flash crowd, adversarial demand walk,
// diurnal swing, correlated multi-cluster surge — see internal/scenario)
// under the four controllers of regretLegs plus the clairvoyant oracle
// that re-optimizes each window for the true upcoming demand. For every
// controller it reports worst-case and mean per-window latency regret
// (window mean latency minus the oracle's, in ms). Scenario durations
// are fixed by the stress suite; Options only contributes the seed.
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

	// One table for the whole suite: per scenario the clairvoyant, then
	// every controller. Arrival processes are seed-paired, so every leg
	// of a scenario faces the identical workload realization.
	clairvoyant := func(scn *simrun.Scenario) (simrun.Policy, error) {
		return simrun.Clairvoyant(scn, core.Config{}), nil
	}
	var legs []leg
	for _, scn := range scns {
		legs = append(legs, leg{"clairvoyant", scn, clairvoyant})
		for _, rl := range regretLegs {
			cfg := core.ControllerConfig{DemandSmoothing: 0.7}
			if rl.robust {
				cfg.Optimizer.DemandMargin = regretMargin
			}
			if rl.predictive {
				cfg.Forecast = regretForecast()
			}
			// Prime every leg from the schedule's t=0 rates so regret measures
			// steady-state response to surprises, not cold-start convergence.
			legs = append(legs, leg{rl.name, scn, slateLeg(cfg, initialDemand(scn.Workload))})
		}
	}
	results, err := runLegs(legs)
	if err != nil {
		return nil, err
	}

	for si, scn := range scns {
		// The scenario's stretch of the table: its oracle, then its legs.
		res := results[si*(1+len(regretLegs)):]
		oracle := res[0]
		for li, rl := range regretLegs {
			series, worst, mean := regretSeries(scn, res[1+li], oracle)
			fig.Summary[scn.Name+"/"+rl.name+"_worst_regret_ms"] = worst
			fig.Summary[scn.Name+"/"+rl.name+"_mean_regret_ms"] = mean
			if scn.Name == "flash-crowd" || scn.Name == "adversarial-walk" {
				series.Name = scn.Name + "/" + rl.name
				fig.Series = append(fig.Series, series)
			}
		}
		fig.Summary[scn.Name+"/clairvoyant_mean_ms"] = ms(oracle.Mean)
	}
	return fig, nil
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
		regret := ms(p.Mean - q.Mean)
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
