package simrun

import (
	"time"

	"github.com/servicelayernetworking/slate/internal/baseline"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// Static wraps a fixed routing table as a Policy (locality failover,
// local-only, or any precomputed plan).
func Static(name string, table *routing.Table) Policy {
	return &staticPolicy{name: name, table: table}
}

type staticPolicy struct {
	name  string
	table *routing.Table
}

func (p *staticPolicy) Name() string                  { return p.name }
func (p *staticPolicy) Init() (*routing.Table, error) { return p.table, nil }
func (p *staticPolicy) Tick([]telemetry.WindowStats, time.Duration) (*routing.Table, error) {
	return p.table, nil
}

// SLATE wraps a core.Controller as a Policy. When primeOnInit is true
// the controller optimizes once from its seeded demand before the run
// starts (steady-state experiments); otherwise it starts all-local and
// converges through telemetry ticks (adaptation experiments).
func SLATE(ctrl *core.Controller, primeOnInit bool) Policy {
	return &primedPolicy{name: "slate", ctrl: ctrl, prime: primeOnInit}
}

// Waterfall wraps a baseline.Controller as a Policy, with the same
// priming semantics as SLATE.
func Waterfall(ctrl *baseline.Controller, primeOnInit bool) Policy {
	return &primedPolicy{name: "waterfall", ctrl: ctrl, prime: primeOnInit}
}

// primedPolicy is the Policy over a telemetry-driven controller: the
// three methods core.Controller and baseline.Controller share.
type primedPolicy struct {
	name string
	ctrl interface {
		Prime() (*routing.Table, error)
		Table() *routing.Table
		Tick([]telemetry.WindowStats, time.Duration) (*routing.Table, error)
	}
	prime bool
}

func (p *primedPolicy) Name() string { return p.name }

func (p *primedPolicy) Init() (*routing.Table, error) {
	if p.prime {
		return p.ctrl.Prime()
	}
	return p.ctrl.Table(), nil
}

func (p *primedPolicy) Tick(stats []telemetry.WindowStats, window time.Duration) (*routing.Table, error) {
	return p.ctrl.Tick(stats, window)
}

// Clairvoyant returns the oracle policy for regret measurement: at
// every control boundary it reads the *true* mean offered rate of the
// upcoming window straight from the scenario's workload schedule
// (workload.Spec.MeanRate) and re-optimizes for it, so its tables are
// never stale and never padded. No realizable controller can see this
// demand — telemetry only reports the past — which makes the
// clairvoyant's latency the per-window lower bound that reactive,
// robust and predictive controllers are regret-scored against.
// Requires Scenario.ControlPeriod > 0.
func Clairvoyant(scn *Scenario, cfg core.Config) Policy {
	return &clairvoyantPolicy{scn: scn, opt: core.NewShardedOptimizer(scn.Top, scn.App, cfg, 0)}
}

type clairvoyantPolicy struct {
	scn     *Scenario
	opt     *core.ShardedOptimizer
	elapsed time.Duration
	version uint64
	cur     *routing.Table
}

func (p *clairvoyantPolicy) Name() string { return "clairvoyant" }

func (p *clairvoyantPolicy) Init() (*routing.Table, error) {
	return p.solve()
}

func (p *clairvoyantPolicy) Tick(_ []telemetry.WindowStats, window time.Duration) (*routing.Table, error) {
	p.elapsed += window
	return p.solve()
}

// solve optimizes for the true mean demand over the window starting at
// p.elapsed. On solver failure (e.g. offered load transiently exceeds
// modeled capacity) the previous table keeps serving, like a real
// control plane.
func (p *clairvoyantPolicy) solve() (*routing.Table, error) {
	window := p.scn.ControlPeriod
	if window <= 0 {
		window = p.scn.Duration
	}
	demand := core.Demand{}
	for _, spec := range p.scn.Workload {
		rate := spec.MeanRate(p.elapsed, p.elapsed+window)
		if rate <= 0 {
			continue
		}
		if demand[spec.Class] == nil {
			demand[spec.Class] = map[topology.ClusterID]float64{}
		}
		demand[spec.Class][spec.Cluster] += rate
	}
	if len(demand) == 0 {
		return p.cur, nil
	}
	p.version++
	plan, err := p.opt.Optimize(demand, core.DefaultProfiles(p.scn.App, p.scn.Top, demand), p.version)
	if err != nil {
		return p.cur, err
	}
	p.cur = plan.Table
	return p.cur, nil
}
