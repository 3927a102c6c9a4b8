package core

import (
	"errors"
	"fmt"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/lp"
	"github.com/servicelayernetworking/slate/internal/queuemodel"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// optimizer solves the routing LP of one ShardedOptimizer shard tick
// after tick: it caches the LP formulation across ticks (the model's
// structure depends only on topology, placement, and config) and
// mutates demand right-hand sides, PWL segment costs, and load scales in
// place, then warm-starts the simplex from the previous tick's optimal
// basis. At steady state a tick costs a handful of phase-2 pivots
// instead of a full two-phase solve over a freshly built model, and when
// only demand and costs moved since the last solve the basis is not even
// pivoted in: the solver resumes from the tableau it kept
// (lp.Solver.Solve).
//
// Not safe for concurrent use.
type optimizer struct {
	top *topology.Topology
	app *appgraph.App
	cfg Config // normalized
	// solver keeps the tableau of the last solve; the working storage it
	// solves in is that of the worker serving the shard.
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
	// WarmSolves counts solves that started from the previous basis and
	// skipped phase 1.
	WarmSolves uint64
	// KeptSolves counts the warm solves that resumed from the tableau
	// kept from the previous solve instead of installing the basis.
	KeptSolves uint64
	// DualRepairs counts the warm solves whose basis the new demand had
	// left infeasible and dual simplex pivots repaired.
	DualRepairs uint64
	// ColdSolves counts solves from scratch (first tick, a basis that no
	// longer installs, or one that moved costs left beyond repair).
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

// solve brings the formulation up to this tick and solves it in the
// given working storage, the worker's serving the shard. It returns an
// optimal solution, which o.f.extract turns into the plan.
func (o *optimizer) solve(work *lp.Workspace, demand Demand, profiles Profiles) (*lp.Solution, error) {
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
	sol, err := o.solver.Solve(work, o.f.model, o.basis)
	if err != nil {
		return nil, fmt.Errorf("core: solving routing LP: %w", o.f.named(err))
	}
	if sol.Warm {
		o.stats.WarmSolves++
		if sol.Kept {
			o.stats.KeptSolves++
		}
		if sol.DualPivots > 0 {
			o.stats.DualRepairs++
		}
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
	return sol, nil
}

// ensure brings the cached formulation up to date with this tick's
// demand and profiles without solving: build on first use, in-place
// update after, full rebuild when the structure changed (e.g. the PWL
// segment count moved). After ensure, o.f.model is exactly the LP the
// simplex would solve — which is what lets the race score an external
// table against it.
func (o *optimizer) ensure(demand Demand, profiles Profiles) error {
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

func (o *optimizer) build(demand Demand, profiles Profiles) error {
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
// service time moved, its load row's scale coefficients. A pool is
// linearized once per profile value, not once per tick.
func (f *formulation) update(demand Demand, profiles Profiles) error {
	for _, dr := range f.demands {
		d := demand[dr.class][dr.ci] // ShardedOptimizer.checkDemand has passed it
		if dr.con < 0 {
			if d > 0 {
				return fmt.Errorf("core: demand for class %q arrives in %s but frontend %q is not placed there",
					dr.class, dr.ci, dr.svc)
			}
			continue
		}
		if err := f.model.SetRHS(dr.con, d); err != nil {
			return f.named(err)
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
			if err := f.model.SetUpper(pr.segVars[si], seg.Width); err != nil {
				return f.named(err)
			}
		}
		if refChanged {
			for _, lt := range pr.linkTerms {
				if err := f.model.SetCoef(pr.con, lt.v, f.rowCoef(lt, prof)); err != nil {
					return f.named(err)
				}
			}
		}
	}
	return nil
}
