package experiments

import (
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/simrun"
	"github.com/servicelayernetworking/slate/internal/telemetry"
)

// robustTeePolicy drives the simulation with a plain controller while
// feeding the identical telemetry to a shadow controller configured for
// robust planning at DemandMargin 0. Margin 0 must build the exact same
// LP (every load row scaled by 1+0, the nominal scale to the bit — see
// Config.DemandMargin), so the tables must match *bit for bit* on
// every tick, not merely within a tolerance: routing.Diff is the
// comparator, exactly as proxies diff tables on the wire.
type robustTeePolicy struct {
	t      *testing.T
	mono   *core.Controller
	shadow *core.Controller
	ticks  int
}

func (p *robustTeePolicy) Name() string { return "slate" }

func (p *robustTeePolicy) Init() (*routing.Table, error) {
	shadowTab, err := p.shadow.Prime()
	if err != nil {
		return nil, err
	}
	monoTab, err := p.mono.Prime()
	if err != nil {
		return nil, err
	}
	if diff := routing.Diff(monoTab, shadowTab); len(diff) != 0 {
		p.t.Errorf("prime: margin-0 robust table differs from nominal: %v", diff)
	}
	return monoTab, nil
}

func (p *robustTeePolicy) Tick(stats []telemetry.WindowStats, window time.Duration) (*routing.Table, error) {
	monoTab, monoErr := p.mono.Tick(stats, window)
	shadowTab, shadowErr := p.shadow.Tick(stats, window)
	if (monoErr == nil) != (shadowErr == nil) {
		p.t.Errorf("tick %d: nominal err = %v, margin-0 robust err = %v", p.ticks, monoErr, shadowErr)
	}
	if monoErr == nil && shadowErr == nil {
		if diff := routing.Diff(monoTab, shadowTab); len(diff) != 0 {
			p.t.Errorf("tick %d: margin-0 robust table differs from nominal: %v", p.ticks, diff)
		}
	}
	p.ticks++
	return monoTab, monoErr
}

// TestRobustMarginZeroMatchesNominal proves the robust off-state is the
// value margin 0: across every fig6 scenario and the chaos fault
// schedule, a controller with DemandMargin set to 0, fed the same
// telemetry as a plain controller publishes bit-identical routing
// tables on every tick (the PR-8 tee style, with exact comparison).
func TestRobustMarginZeroMatchesNominal(t *testing.T) {
	for _, tc := range differentialCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			demand := demandFromWorkload(tc.scn)
			newCtrl := func(robust bool) *core.Controller {
				cfg := tc.cfg
				if robust {
					cfg.Optimizer.DemandMargin = 0
				}
				ctrl, err := core.NewController(tc.scn.Top, tc.scn.App, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ctrl.SetDemand(demand)
				return ctrl
			}
			tee := &robustTeePolicy{t: t, mono: newCtrl(false), shadow: newCtrl(true)}
			if _, err := simrun.Run(tc.scn, tee); err != nil {
				t.Fatal(err)
			}
			if tee.ticks == 0 {
				t.Fatal("tee policy never ticked; differential comparison is vacuous")
			}
		})
	}
}
