package core

import (
	"errors"
	"fmt"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/lp"
	"github.com/servicelayernetworking/slate/internal/queuemodel"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// Optimizer solves the routing LP for one app (or one shard's sub-app)
// tick after tick: it caches the LP formulation across ticks (the model's
// structure depends only on topology, placement, and config) and
// mutates demand right-hand sides, PWL segment costs, and load scales in
// place, then warm-starts the simplex from the previous tick's optimal
// basis. At steady state a tick costs a handful of phase-2 pivots
// instead of a full two-phase solve over a freshly built model.
//
// Not safe for concurrent use.
type Optimizer struct {
	top    *topology.Topology
	app    *appgraph.App
	cfg    Config // normalized
	solver *lp.Solver
	f      *formulation
	basis  []int
	// restored holds a basis carried over from a warm-state snapshot.
	// It installs on the first solve *after* ensure has built the
	// formulation (build resets o.basis, which would wipe a restored
	// basis installed any earlier), then clears: if the first solve
	// cannot use it, the state it captured is already stale.
	restored []int
	stats    OptimizerStats
}

// OptimizerStats counts how the optimizer's solves were served.
type OptimizerStats struct {
	// Builds is the number of full formulation (re)builds.
	Builds uint64
	// WarmSolves counts solves that installed the previous basis and
	// skipped phase 1.
	WarmSolves uint64
	// ColdSolves counts solves from scratch (first tick or basis gone
	// stale).
	ColdSolves uint64
	// Shards is the number of independent subproblems the app is
	// partitioned into (1 when not decomposed).
	Shards uint64
	// SubSolves counts subproblem solves actually run by a
	// ShardedOptimizer.
	SubSolves uint64
	// SkippedSolves counts subproblem solves skipped because the
	// shard's inputs were unchanged within epsilon.
	SkippedSolves uint64
	// SearchSolves counts dirty-shard solves served by the anytime
	// local-search optimizer (race won within the certified gap).
	SearchSolves uint64
	// SimplexWins counts raced solves where search lost and the simplex
	// produced the plan.
	SimplexWins uint64
	// GapAbandoned counts search candidates rejected before winning:
	// infeasible tables, lost flow, or a certified gap above MaxGap.
	GapAbandoned uint64
}

// NewOptimizer returns an Optimizer for a fixed topology, app, and
// config. Demand and profiles are supplied per call to Optimize.
func NewOptimizer(top *topology.Topology, app *appgraph.App, cfg Config) *Optimizer {
	return &Optimizer{top: top, app: app, cfg: cfg.normalized(), solver: lp.NewSolver()}
}

// Stats reports cumulative solve counters.
func (o *Optimizer) Stats() OptimizerStats { return o.stats }

// Optimize solves the routing problem for this tick's demand and
// profiles, reusing the cached formulation and the previous optimal
// basis when possible. version is stamped onto the produced table.
func (o *Optimizer) Optimize(demand Demand, profiles Profiles, version uint64) (*Plan, error) {
	return o.solve(o.solver, demand, profiles, version)
}

// solve is Optimize in the given simplex scratch. A ShardedOptimizer's
// shards own none: each solves in its worker's.
func (o *Optimizer) solve(solver *lp.Solver, demand Demand, profiles Profiles, version uint64) (*Plan, error) {
	if err := o.ensure(demand, profiles); err != nil {
		return nil, err
	}
	if o.basis == nil && o.restored != nil {
		// First solve after a snapshot restore: the LP column order is a
		// deterministic function of (topology, app, config), so a basis
		// serialized by another process warm-starts this one's freshly
		// built formulation. A stale basis is harmless — the solver
		// falls back to a cold solve if it does not install.
		o.basis = o.restored
	}
	o.restored = nil
	sol, err := solver.SolveFrom(o.f.model, o.basis)
	if err != nil {
		return nil, fmt.Errorf("core: solving routing LP: %w", err)
	}
	if sol.Warm {
		o.stats.WarmSolves++
	} else {
		o.stats.ColdSolves++
	}
	if sol.Status == lp.Optimal {
		o.basis = sol.Basis
	} else {
		o.basis = nil
	}
	if err := o.f.statusErr(sol); err != nil {
		return nil, err
	}
	return o.f.extract(sol, demand, version), nil
}

// ensure brings the cached formulation up to date with this tick's
// demand and profiles without solving: build on first use, in-place
// update after, full rebuild when the structure changed (e.g. the PWL
// segment count moved). After ensure, o.f.model is exactly the LP the
// simplex would solve — which is what lets the race score an external
// table against it.
func (o *Optimizer) ensure(demand Demand, profiles Profiles) error {
	if o.f == nil {
		return o.build(demand, profiles)
	}
	if err := o.f.update(demand, profiles); err != nil {
		if !errors.Is(err, errStructureChanged) {
			return err
		}
		return o.build(demand, profiles)
	}
	return nil
}

func (o *Optimizer) build(demand Demand, profiles Profiles) error {
	if o.top == nil || o.app == nil {
		return fmt.Errorf("core: optimizer missing topology or app")
	}
	if err := o.app.Validate(o.top); err != nil {
		return fmt.Errorf("core: invalid app: %w", err)
	}
	f, err := buildFormulation(o.top, o.app, o.cfg, demand, profiles)
	if err != nil {
		return err
	}
	o.f = f
	o.basis = nil
	o.stats.Builds++
	return nil
}

// errStructureChanged signals that an in-place update cannot represent
// the new tick (the model's shape would differ) and the formulation must
// be rebuilt.
var errStructureChanged = errors.New("core: formulation structure changed")

// update mutates the cached model for a new tick: demand right-hand
// sides, and for each pool whose profile changed in value (FitProfiles
// refits in place) its PWL segment slopes/widths and, where the reference
// service time moved, its loadlink scale coefficients. A pool is
// linearized once per profile value, not once per tick.
func (f *formulation) update(demand Demand, profiles Profiles) error {
	for _, dr := range f.demands {
		d := demand[dr.class][dr.ci]
		if d < 0 {
			return fmt.Errorf("core: negative demand for class %q in %s", dr.class, dr.ci)
		}
		if dr.con < 0 {
			if d > 0 {
				return fmt.Errorf("core: demand for class %q arrives in %s but frontend %q is not placed there",
					dr.class, dr.ci, dr.svc)
			}
			continue
		}
		if err := f.model.SetRHS(dr.con, d); err != nil {
			return err
		}
	}
	for _, pr := range f.pools {
		prof, ok := profiles.Get(pr.key.Service, pr.key.Cluster)
		if !ok {
			return fmt.Errorf("core: no latency profile for pool %s", pr.key)
		}
		if prof == pr.profile {
			continue
		}
		refChanged := prof.RefServiceTime != pr.profile.RefServiceTime
		segs, err := queuemodel.Linearize(prof.Model, f.cfg.BreakFracs)
		if err != nil {
			return fmt.Errorf("core: linearizing pool %s: %w", pr.key, err)
		}
		if len(segs) != len(pr.segVars) {
			return errStructureChanged
		}
		pr.profile = prof
		pr.segs = segs
		for si, seg := range segs {
			f.model.SetObj(pr.segVars[si], f.cfg.LatencyWeight*seg.Slope)
			f.model.SetUpper(pr.segVars[si], seg.Width)
		}
		if refChanged {
			for _, lt := range pr.linkTerms {
				if err := f.model.SetCoef(pr.linkCon, lt.v, linkScale(lt, prof)); err != nil {
					return err
				}
			}
			// The robust surge rows scale flows by the same reference
			// service time; keep them in lockstep with the loadlink row.
			for ri := range pr.robs {
				rr := &pr.robs[ri]
				for _, lt := range pr.linkTerms {
					if lt.class != rr.class {
						continue
					}
					if err := f.model.SetCoef(rr.con, lt.v, -f.cfg.DemandMargin*linkScale(lt, prof)); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}
