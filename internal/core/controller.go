package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/forecast"
	"github.com/servicelayernetworking/slate/internal/lp"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// ControllerConfig tunes the global controller's control loop.
type ControllerConfig struct {
	// Optimizer configuration (objective weights, linearization).
	Optimizer Config
	// MaxStep bounds how much traffic weight a single period may move
	// per rule (0 or ≥1 applies optimizer output immediately). Paper §5:
	// "implement incremental increases ... and proceed only if the
	// objectives improve as predicted".
	MaxStep float64
	// DemandSmoothing is the EWMA weight of the newest demand
	// observation in (0, 1]; default 0.5.
	DemandSmoothing float64
	// LearnProfiles enables online profile fitting from telemetry. When
	// false the controller trusts its initial profiles.
	LearnProfiles bool
	// GuardRegression enables the rollback guardrail: if the measured
	// objective degrades by more than guardTolerance after a rule change,
	// the previous table is restored and held for one period.
	GuardRegression bool
	// Decompose partitions the app into independent (call-graph
	// component × class) subproblems; false plans the whole app as one
	// shard. Either way each shard is warm-started and skipped entirely
	// when its telemetry inputs are unchanged within SkipEpsilon.
	Decompose bool
	// SkipEpsilon is the relative input-change threshold below which a
	// shard reuses its previous solution (default DefaultSkipEpsilon).
	SkipEpsilon float64
	// Search arms the anytime local-search optimizer as a race against
	// the warm simplex on every dirty shard: search wins when it
	// certifies a table within MaxGap of the LP optimum inside
	// SearchDeadline, otherwise the simplex runs, and on both failing
	// the incumbent table is held.
	Search bool
	// SearchDeadline is the per-shard search budget, converted to a
	// deterministic evaluation count so the published table never
	// depends on wall-clock time (default DefaultSearchDeadline).
	SearchDeadline time.Duration //slate:nolint testonly -- goes with the search race (ROADMAP item 4); benchmark/adapter.go reads it
	// MaxGap is the certified optimality gap a search result may carry
	// and still win (default DefaultMaxGap).
	MaxGap float64 //slate:nolint testonly -- goes with the search race (ROADMAP item 4); benchmark/adapter.go reads it
	// Forecast arms the demand forecaster when non-zero
	// (forecast.Defaults() is EWMA level + Holt trend): every tick
	// plans for max(estimate, one-window-ahead forecast) per key, so a
	// forecasted swing re-solves before the window that would have
	// missed it (the forecast change dirties the shard fingerprint).
	Forecast forecast.Config
}

// guardTolerance is the relative degradation of the measured objective
// that makes the GuardRegression guardrail roll a rule change back.
const guardTolerance = 0.15

// Controller is SLATE's global controller: it ingests telemetry windows,
// maintains demand estimates and latency profiles, re-optimizes, and
// publishes routing tables with bounded per-period movement. It is
// clock-agnostic — the caller invokes Tick once per collection window —
// so the same controller drives the discrete-event simulator, the
// loopback emulation, and the HTTP control plane daemon. Not safe for
// concurrent use; callers serialize Ticks.
type Controller struct {
	cfg     ControllerConfig
	top     *topology.Topology
	app     *appgraph.App
	profs   Profiles
	history *SampleHistory
	demand  Demand
	seen    map[forecast.Key]struct{} // FoldDemand's scratch: keys this window reported
	fc      *forecast.Forecaster      // nil when cfg.Forecast is zero
	opt     *ShardedOptimizer

	cur     *routing.Table
	prev    *routing.Table
	version uint64

	lastObjective   float64
	haveLastObj     bool
	holdAfterRevert bool
	reverts         uint64
	iterLimitHolds  uint64
}

// NewController returns a controller with initial profiles derived from
// the application model and an empty (all-local) routing table.
func NewController(top *topology.Topology, app *appgraph.App, cfg ControllerConfig) (*Controller, error) {
	if err := app.Validate(top); err != nil {
		return nil, fmt.Errorf("core: controller: %w", err)
	}
	if cfg.DemandSmoothing <= 0 || cfg.DemandSmoothing > 1 {
		cfg.DemandSmoothing = 0.5
	}
	var fc *forecast.Forecaster
	if cfg.Forecast != (forecast.Config{}) {
		fc = forecast.New(cfg.Forecast)
	}
	opt := newShardedOptimizer(top, app, cfg.Optimizer, cfg.SkipEpsilon, cfg.Decompose)
	if cfg.Search {
		opt.EnableSearch(RaceConfig{Deadline: cfg.SearchDeadline, MaxGap: cfg.MaxGap})
	}
	return &Controller{
		cfg:     cfg,
		top:     top,
		app:     app,
		profs:   DefaultProfiles(app, top, Demand{}),
		history: NewSampleHistory(0),
		demand:  Demand{},
		seen:    make(map[forecast.Key]struct{}),
		fc:      fc,
		opt:     opt,
		cur:     routing.EmptyTable(),
	}, nil
}

// Table returns the currently published routing table.
func (c *Controller) Table() *routing.Table { return c.cur }

// Version returns the controller's monotonically increasing
// optimization-attempt counter (the version the next plan will carry).
// Snapshot freshness comparisons use it: it advances on every attempted
// solve, so a larger value always means strictly newer warm state.
func (c *Controller) Version() uint64 { return c.version }

// Demand returns the controller's current demand estimate.
func (c *Controller) Demand() Demand { return c.demand }

// Profiles returns the controller's current latency profiles.
func (c *Controller) Profiles() Profiles { return c.profs }

// Reverts reports how many times the regression guardrail fired.
func (c *Controller) Reverts() uint64 { return c.reverts }

// IterLimitHolds reports how many ticks kept the previous table because
// the solver hit its iteration limit (transient; retried next tick).
func (c *Controller) IterLimitHolds() uint64 { return c.iterLimitHolds }

// OptimizerStats reports the controller's cumulative solve counters
// (formulation builds, warm vs cold solves).
func (c *Controller) OptimizerStats() OptimizerStats { return c.opt.Stats() }

// SetDemand seeds or overrides the demand estimate (useful for one-shot
// optimization runs where telemetry has not accumulated yet). It copies
// d: Tick folds telemetry into the estimate in place, and the caller's
// map must not move with it.
func (c *Controller) SetDemand(d Demand) { c.demand = copyDemand(d) }

// Prime runs one optimization with the current (seeded) demand estimate
// and publishes the result in full, bypassing the MaxStep rollout. Use
// it to start an experiment from the optimizer's plan when demand is
// known a priori; production deployments instead converge via Ticks.
func (c *Controller) Prime() (*routing.Table, error) {
	if !hasDemand(c.demand) {
		return c.cur, nil
	}
	c.version++
	plan, err := c.opt.Optimize(c.demand, c.profs, c.version)
	if err != nil {
		return c.cur, err
	}
	c.prev = c.cur
	c.cur = plan.Table
	return c.cur, nil
}

// Tick processes one telemetry window and returns the table to publish.
// stats is the merged cluster-controller telemetry for the window;
// window is the collection window length.
func (c *Controller) Tick(stats []telemetry.WindowStats, window time.Duration) (*routing.Table, error) {
	FoldDemand(c.demand, c.app, stats, c.cfg.DemandSmoothing, c.seen)
	c.observeForecast(stats)
	if c.cfg.LearnProfiles {
		c.history.Observe(stats)
		FitProfiles(c.profs, c.history.Samples())
	}

	measured, haveMeasured := c.measuredObjective(stats, window)

	// Regression guardrail: if the last change made things worse, revert
	// and hold one period so telemetry reflects the restored table.
	if c.cfg.GuardRegression && haveMeasured && c.haveLastObj && c.prev != nil && !c.holdAfterRevert {
		if measured > c.lastObjective*(1+guardTolerance) {
			c.cur = c.prev
			c.prev = nil
			c.holdAfterRevert = true
			c.reverts++
			c.lastObjective = measured
			return c.cur, nil
		}
	}
	if c.holdAfterRevert {
		c.holdAfterRevert = false
		c.lastObjective = measured
		c.haveLastObj = haveMeasured
		return c.cur, nil
	}

	demand := c.planDemand()
	if !hasDemand(demand) {
		// Nothing to optimize yet.
		c.lastObjective = measured
		c.haveLastObj = haveMeasured
		return c.cur, nil
	}

	c.version++
	plan, err := c.opt.Optimize(demand, c.profs, c.version)
	if err != nil {
		if errors.Is(err, lp.ErrIterLimit) {
			// The solver ran out of pivots (cycling on a degenerate
			// instance). That is transient, not a policy failure: hold the
			// current table and retry on the next window.
			c.iterLimitHolds++
			c.lastObjective = measured
			c.haveLastObj = haveMeasured
			return c.cur, nil
		}
		// Keep serving the current table; the caller decides whether to
		// alert. Typical cause: measured demand transiently exceeds
		// modeled capacity.
		return c.cur, err
	}
	next := routing.Step(c.cur, plan.Table, c.cfg.MaxStep)
	if !routing.Equal(c.cur, next) {
		c.prev = c.cur
		c.cur = next
	}
	c.lastObjective = measured
	c.haveLastObj = haveMeasured
	return c.cur, nil
}

func hasDemand(d Demand) bool {
	for _, per := range d {
		for _, v := range per {
			if v > 0 {
				return true
			}
		}
	}
	return false
}

// observeForecast feeds the window's frontend arrival rates to the
// forecaster (keys the window did not report receive an implicit zero
// via EndWindow, so vanished streams decay). No-op without a forecaster.
func (c *Controller) observeForecast(stats []telemetry.WindowStats) {
	if c.fc == nil {
		return
	}
	frontend := string(c.app.FrontendService())
	for _, ws := range stats {
		if ws.Key.Service != frontend || c.app.Class(ws.Key.Class) == nil {
			continue
		}
		c.fc.Observe(forecast.Key{Class: ws.Key.Class, Cluster: ws.Key.Cluster}, ws.RPS)
	}
	c.fc.EndWindow()
}

// planDemand returns the demand the optimizer plans for. Without the
// forecaster it is the EWMA estimate. With one, each key plans
// for max(estimate, one-window-ahead forecast): never less than
// currently observed — the conservative merge means a wrong forecast
// can only over-provision, not starve a live stream — and a predicted
// swing changes the planned demand now, which dirties the shard
// fingerprint and re-solves before the window that would have missed
// it.
func (c *Controller) planDemand() Demand {
	if c.fc == nil {
		return c.demand
	}
	d := make(Demand, len(c.demand))
	for class, per := range c.demand {
		cp := make(map[topology.ClusterID]float64, len(per))
		for cl, v := range per {
			cp[cl] = v
		}
		d[class] = cp
	}
	c.fc.Each(1, func(k forecast.Key, p float64) {
		if p < 1e-6 {
			return // dust: mirrors the estimate's deletion threshold
		}
		if c.app.Class(k.Class) == nil {
			return
		}
		cl := topology.ClusterID(k.Cluster)
		if d[k.Class] == nil {
			d[k.Class] = make(map[topology.ClusterID]float64)
		}
		if p > d[k.Class][cl] {
			d[k.Class][cl] = p
		}
	})
	return d
}

// FoldDemand folds one window's frontend arrival rates into the EWMA
// demand estimate d. Demand for class k in cluster i is the RPS observed
// at the frontend service in cluster i for class k (roots are pinned to
// the arrival cluster): the first observation of a key seeds it, later
// ones move it by alpha, and a key that reported nothing this window
// decays by (1-alpha) until it falls under 1e-6 and is deleted. seen is
// the caller's scratch set, cleared here, so a steady tick allocates
// nothing.
func FoldDemand(d Demand, app *appgraph.App, stats []telemetry.WindowStats, alpha float64, seen map[forecast.Key]struct{}) {
	frontend := string(app.FrontendService())
	clear(seen)
	for _, ws := range stats {
		if ws.Key.Service != frontend {
			continue
		}
		class := ws.Key.Class
		if app.Class(class) == nil {
			continue // not a class the optimizer knows (e.g. fallback)
		}
		cl := topology.ClusterID(ws.Key.Cluster)
		if d[class] == nil {
			d[class] = make(map[topology.ClusterID]float64)
		}
		old, had := d[class][cl]
		if had {
			d[class][cl] = (1-alpha)*old + alpha*ws.RPS
		} else {
			d[class][cl] = ws.RPS
		}
		seen[forecast.Key{Class: class, Cluster: ws.Key.Cluster}] = struct{}{}
	}
	// Decay demand for keys that reported nothing this window.
	for class, per := range d {
		for cl, v := range per {
			if _, ok := seen[forecast.Key{Class: class, Cluster: string(cl)}]; !ok {
				per[cl] = (1 - alpha) * v
				if per[cl] < 1e-6 {
					delete(per, cl)
				}
			}
		}
	}
}

// measuredObjective computes the observed analogue of the optimizer
// objective from telemetry: request-weighted end-to-end latency
// (request-seconds per second) plus weighted egress dollars per second.
// It prefers the telemetry.E2EService stream; if the runtime does not
// report one, frontend pool latency is used as a proxy.
func (c *Controller) measuredObjective(stats []telemetry.WindowStats, window time.Duration) (float64, bool) {
	cfg := c.cfg.Optimizer.normalized()
	latService := string(c.app.FrontendService())
	for _, ws := range stats {
		if ws.Key.Service == telemetry.E2EService {
			latService = telemetry.E2EService
			break
		}
	}
	var latAgg float64
	var egressPerSec float64
	var any bool
	for _, ws := range stats {
		if ws.Key.Service == latService {
			latAgg += ws.RPS * ws.MeanLatency.Seconds()
			any = true
		}
		if window > 0 && ws.EgressBytes > 0 {
			// Approximate $/s using the topology's default price scale:
			// egress bytes already crossed clusters; price at the mean
			// inter-cluster rate.
			egressPerSec += meanEgressPrice(c.top) * float64(ws.EgressBytes) / (1 << 30) / window.Seconds()
		}
	}
	if !any {
		return 0, false
	}
	return cfg.LatencyWeight*latAgg + cfg.CostWeight*egressPerSec, true
}

func meanEgressPrice(top *topology.Topology) float64 {
	ids := top.ClusterIDs()
	var sum float64
	var n int
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			sum += top.EgressCostPerGB(a, b)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
