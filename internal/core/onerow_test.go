package core_test

import (
	"fmt"
	"os"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/scenario"
	"github.com/servicelayernetworking/slate/internal/sim"
	"github.com/servicelayernetworking/slate/internal/simrun"
	"github.com/servicelayernetworking/slate/internal/telemetry"
)

// checkPolicy drives a simulation with a controller and hands each
// tick's demand estimate and profiles to check.
type checkPolicy struct {
	ctrl  *core.Controller
	check func(tick int, demand core.Demand, profiles core.Profiles)
	ticks int
}

func (p *checkPolicy) Name() string                  { return "slate" }
func (p *checkPolicy) Init() (*routing.Table, error) { return p.ctrl.Prime() }
func (p *checkPolicy) Tick(stats []telemetry.WindowStats, window time.Duration) (*routing.Table, error) {
	tab, err := p.ctrl.Tick(stats, window)
	p.check(p.ticks, p.ctrl.Demand(), p.ctrl.Profiles())
	p.ticks++
	return tab, err
}

// TestOneRowMatchesTwoRows holds the routing LP, one row per pool with
// the robust margin in its coefficients, to the two-row, dualized LP it
// replaced (core.MatchTwoRows: the same status, the same objective, and
// the plan's table optimal on the reference too) at margin 0 and 0.25,
// on every tick of the Fig. 6 and chaos streams, the churn stream,
// FuzzControllerStream's corpus and an overloaded 16-cluster deployment.
func TestOneRowMatchesTwoRows(t *testing.T) {
	overloaded := genSpec(16, 32, 8)
	overloaded.TotalRPS = 60000
	for _, margin := range []float64{0, 0.25} {
		t.Run(fmt.Sprintf("margin=%v", margin), func(t *testing.T) {
			var ticks, solved int
			check := func(what string, p *core.Problem) {
				t.Helper()
				p.Config.DemandMargin = margin
				m, ok := core.MatchTwoRows(p)
				ticks++
				if ok {
					solved++
				}
				if m != "" {
					t.Errorf("%s: %s", what, m)
				}
			}
			problem := func(g *scenario.Generated, d core.Demand, profiles core.Profiles, cfg core.Config) *core.Problem {
				return &core.Problem{Top: g.Top, App: g.App, Demand: d, Profiles: profiles, Config: cfg}
			}

			for _, tc := range steadyCases() {
				switch tc.name {
				case "fig6a", "fig6b", "fig6c", "fig6d", "chaos":
				default:
					continue
				}
				cfg := tc.cfg
				cfg.Optimizer.DemandMargin = margin
				ctrl, err := core.NewController(tc.scn.Top, tc.scn.App, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ctrl.SetDemand(demandAtStart(tc.scn.Workload))
				pol := &checkPolicy{ctrl: ctrl, check: func(tick int, d core.Demand, profiles core.Profiles) {
					check(fmt.Sprintf("%s tick %d", tc.name, tick),
						&core.Problem{Top: tc.scn.Top, App: tc.scn.App, Demand: d, Profiles: profiles, Config: cfg.Optimizer})
				}}
				if _, err := simrun.Run(tc.scn, pol); err != nil {
					t.Fatal(err)
				}
			}

			for _, c := range []struct {
				name  string
				g     *scenario.Generated
				ticks int
			}{
				{"churn", churnDeployment(t), 12},
				{"overloaded", generate(t, overloaded), 10},
			} {
				rng := sim.NewRNG(23)
				for tick := 0; tick < c.ticks; tick++ {
					d := churnDemand(c.g, rng, tick)
					check(fmt.Sprintf("%s tick %d", c.name, tick), problem(c.g, d, core.DefaultProfiles(c.g.App, c.g.Top, d), core.Config{}))
				}
			}

			files, err := os.ReadDir(streamCorpus)
			if err != nil {
				t.Fatal(err)
			}
			for _, file := range files {
				s := corpusStream(t, file.Name())
				s.cfg.Optimizer.DemandMargin = margin
				g := generate(t, s.spec)
				ctrl, err := core.NewController(g.Top, g.App, s.cfg)
				if err != nil {
					t.Fatal(err)
				}
				rng := sim.NewRNG(s.spec.Seed)
				for tick := 0; tick < streamTicks; tick++ {
					ctrl.Tick(s.window(g, rng), time.Second) // an infeasible tick must be infeasible on both LPs
					check(fmt.Sprintf("%s tick %d", file.Name(), tick), problem(g, ctrl.Demand(), ctrl.Profiles(), s.cfg.Optimizer))
				}
			}
			t.Logf("%d problems, %d solved", ticks, solved)
			if solved == 0 || solved == ticks {
				t.Errorf("%d of %d problems solved: the streams must hold solved and failing problems both", solved, ticks)
			}
		})
	}
}

func generate(t *testing.T, spec scenario.GenSpec) *scenario.Generated {
	t.Helper()
	g, err := scenario.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
