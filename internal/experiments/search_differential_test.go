package experiments

import (
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/simrun"
	"github.com/servicelayernetworking/slate/internal/telemetry"
)

// searchTeeGap is the optimality gap the shadow controller's race is
// configured with. The fig6 chains are three services deep, where the
// search's certified bound is structurally loose (per-source rates at
// depth ≥ 2 are routing-dependent), so the race needs more slack than
// DefaultMaxGap to win at all; the tee then verifies the accepted
// tables really are within this gap on the exact LP.
const searchTeeGap = 0.35

// searchTeePolicy drives the simulation with a plain decomposed
// controller while feeding the identical telemetry stream to a shadow
// controller whose dirty shards are raced by the anytime search. Every
// tick it scores both published tables on the exact monolithic LP and
// asserts the raced table is feasible (capacity + flow conservation via
// lp.CheckFeasible inside core.EvaluateTable) and within the configured
// gap of the simplex table.
type searchTeePolicy struct {
	t       *testing.T
	scn     simrun.Scenario
	mono    *core.Controller
	shadow  *core.Controller
	ticks   int
	checked int
}

func (p *searchTeePolicy) Name() string { return "slate" }

func (p *searchTeePolicy) Init() (*routing.Table, error) {
	shadowTab, err := p.shadow.Prime()
	if err != nil {
		return nil, err
	}
	monoTab, err := p.mono.Prime()
	if err != nil {
		return nil, err
	}
	p.compare("prime", monoTab, shadowTab)
	return monoTab, nil
}

func (p *searchTeePolicy) Tick(stats []telemetry.WindowStats, window time.Duration) (*routing.Table, error) {
	monoTab, monoErr := p.mono.Tick(stats, window)
	shadowTab, shadowErr := p.shadow.Tick(stats, window)
	if monoErr == nil && shadowErr == nil {
		p.compare("tick", monoTab, shadowTab)
	}
	p.ticks++
	return monoTab, monoErr
}

// compare scores both tables on the exact LP of the shadow controller's
// current instance. Transiently infeasible instances (demand beyond
// modeled capacity mid-fault) are skipped: on those ticks the simplex
// leg itself holds its previous table.
func (p *searchTeePolicy) compare(at string, monoTab, shadowTab *routing.Table) {
	p.t.Helper()
	prob := &core.Problem{
		Top:      p.scn.Top,
		App:      p.scn.App,
		Demand:   p.shadow.Demand(),
		Profiles: p.shadow.Profiles(),
	}
	monoScore, monoErr := core.EvaluateTable(prob, monoTab)
	if monoErr != nil {
		return
	}
	shadowScore, err := core.EvaluateTable(prob, shadowTab)
	if err != nil {
		p.t.Errorf("%s %d: raced table rejected by the exact LP: %v", at, p.ticks, err)
		return
	}
	// A shard accepted at certified gap g satisfies obj ≤ LB/(1-g) with
	// LB ≤ the shard optimum, so the merged plan obeys the same ratio.
	if limit := monoScore / (1 - searchTeeGap); shadowScore > limit+1e-9*(1+limit) {
		p.t.Errorf("%s %d: raced table scores %v, beyond gap %.2f of simplex table %v",
			at, p.ticks, shadowScore, searchTeeGap, monoScore)
	}
	p.checked++
}

// TestSearchRaceMatchesSimplex proves the anytime race is an
// optimization, not a semantic change: across every fig6 scenario and
// the chaos fault schedule, a search-racing controller fed the same
// telemetry as a simplex-only decomposed controller publishes tables
// that stay feasible on the exact LP and within the configured gap of
// the simplex plan — and the race actually fires (non-vacuity).
func TestSearchRaceMatchesSimplex(t *testing.T) {
	var totalSearchWins uint64
	for _, tc := range differentialCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			demand := demandFromWorkload(tc.scn)
			newCtrl := func(search bool) *core.Controller {
				cfg := tc.cfg
				cfg.Decompose = true
				if search {
					cfg.Search = true
					cfg.MaxGap = searchTeeGap
				}
				ctrl, err := core.NewController(tc.scn.Top, tc.scn.App, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ctrl.SetDemand(demand)
				return ctrl
			}
			tee := &searchTeePolicy{t: t, scn: tc.scn, mono: newCtrl(false), shadow: newCtrl(true)}
			if _, err := simrun.Run(tc.scn, tee); err != nil {
				t.Fatal(err)
			}
			if tee.checked == 0 {
				t.Fatal("tee never scored a tick; differential comparison is vacuous")
			}
			st := tee.shadow.OptimizerStats()
			if st.SearchSolves+st.GapAbandoned == 0 {
				t.Errorf("race never attempted: %+v", st)
			}
			totalSearchWins += st.SearchSolves
		})
	}
	if totalSearchWins == 0 {
		t.Errorf("search won no race in any scenario; the search leg is untested")
	}
}
