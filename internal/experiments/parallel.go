package experiments

import (
	"fmt"
	"runtime"

	"github.com/servicelayernetworking/slate/internal/baseline"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/par"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/simrun"
)

// leg is one simulated run of an experiment: a scenario and the policy
// driving it. Every simulated figure is a table of legs handed to
// runLegs.
type leg struct {
	name   string
	scn    simrun.Scenario
	policy policyFunc
}

// policyFunc builds a leg's policy, and the controller behind it, for
// the leg's own copy of its scenario at the moment the leg runs: legs
// share no mutable state (SetDemand copies the map it is given), so a
// table gives the same results in any order on any number of workers.
type policyFunc func(scn *simrun.Scenario) (simrun.Policy, error)

// runLegs runs every leg, concurrently when GOMAXPROCS allows, and
// returns the results in leg order.
func runLegs(legs []leg) ([]*simrun.Result, error) {
	results := make([]*simrun.Result, len(legs))
	err := par.Each(len(legs), runtime.GOMAXPROCS(0), func(_, i int) error {
		l := legs[i]
		pol, err := l.policy(&l.scn)
		if err == nil {
			results[i], err = simrun.Run(l.scn, pol)
		}
		if err != nil {
			return fmt.Errorf("%s/%s: %w", l.scn.Name, l.name, err)
		}
		return nil
	})
	return results, err
}

// slateLeg is a SLATE controller with the given config. With a demand
// it is seeded and primed — the run starts from the optimizer's plan
// (steady-state experiments); with nil it starts all-local and
// converges through telemetry ticks (adaptation experiments).
func slateLeg(cfg core.ControllerConfig, demand core.Demand) policyFunc {
	return func(scn *simrun.Scenario) (simrun.Policy, error) {
		ctrl, err := core.NewController(scn.Top, scn.App, cfg)
		if err != nil {
			return nil, err
		}
		if demand != nil {
			ctrl.SetDemand(demand)
		}
		return simrun.SLATE(ctrl, demand != nil), nil
	}
}

// waterfallLeg is a Waterfall controller whose static thresholds are
// frac of each pool's rated capacity under demand. Primed, it also
// starts from the waterfall table for that demand; unprimed it starts
// all-local like an unprimed slateLeg.
func waterfallLeg(demand core.Demand, frac float64, prime bool) policyFunc {
	return func(scn *simrun.Scenario) (simrun.Policy, error) {
		caps := baseline.DefaultCapacities(scn.App, scn.Top, demand, frac)
		ctrl, err := baseline.NewController(scn.Top, scn.App, caps)
		if err != nil {
			return nil, err
		}
		if prime {
			ctrl.SetDemand(demand)
		}
		return simrun.Waterfall(ctrl, prime), nil
	}
}

// staticLeg serves one fixed table for the whole run.
func staticLeg(name string, table *routing.Table) policyFunc {
	return func(*simrun.Scenario) (simrun.Policy, error) {
		return simrun.Static(name, table), nil
	}
}
