package core

import (
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/lp"
	"github.com/servicelayernetworking/slate/internal/search"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// The solver race. With search enabled, every dirty shard is offered to
// the anytime local-search optimizer first: search starts from the
// shard's incumbent table, descends for a bounded budget, and wins the
// race iff its result is (a) feasible under the shard's exact LP
// (Model.CheckFeasible of the assigned flows) and (b) provably within
// the configured gap of the LP optimum — its certified lower bound
// brackets the optimum from below, so EvalObjective ≤ LB/(1−gap)
// implies the table is within gap of optimal without ever running the
// simplex. When search loses (infeasible candidate, gap too wide, or no
// incumbent yet), the warm simplex runs as before; if that fails too,
// the controller holds the incumbent table — the same fallback ladder
// as without the race.
//
// Robust shards: the search descends on the nominal model, so its
// certified lower bound brackets the *nominal* LP optimum. That bound
// stays valid for the robust LP: any robust-feasible x is
// nominal-feasible with no larger segment fill (drop the Γ·z + Σq
// worst-case padding; slopes are non-negative), hence
// LB ≤ opt_nominal ≤ opt_robust. The authoritative re-check below
// evaluates the candidate on the robust LP (assign fills the duals at
// the exact inner maximum), so the accepted gap
// (obj_robust − LB)/obj_robust is a conservative over-estimate of the
// true robust gap — certified gaps remain valid, the race merely gets
// harder for search to win as the margin grows.
//
// Determinism: the "deadline" is logical. Wall-clock time never touches
// the outcome — SearchDeadline converts to a fixed evaluation budget at
// an assumed nominal cost per evaluation, and the search itself is a
// deterministic function of (shard inputs, incumbent, budget). Two
// controllers given the same inputs pick the same winner and publish
// bit-identical tables at any GOMAXPROCS; CI pins this at 1/2/8.

// evalNanos is the nominal cost of one candidate-move evaluation used
// to convert a wall-clock deadline into a deterministic budget. It is
// intentionally a constant, not a measurement: measuring would make the
// move budget — and therefore the published table — machine-dependent.
const evalNanos = 500

// Default race parameters.
const (
	// DefaultSearchDeadline bounds one shard's search descent (~1000
	// evaluations at the nominal per-evaluation cost).
	DefaultSearchDeadline = 500 * time.Microsecond
	// DefaultMaxGap is the largest certified optimality gap a search
	// result may carry and still win the race.
	DefaultMaxGap = 0.05
)

// RaceConfig tunes the search-vs-simplex race.
type RaceConfig struct {
	// Deadline is the per-shard search budget, converted deterministically
	// to an evaluation count (0 uses DefaultSearchDeadline).
	Deadline time.Duration
	// MaxGap is the certified-gap acceptance threshold (0 uses
	// DefaultMaxGap).
	MaxGap float64
	// MoveBudget, when > 0, fixes the evaluation budget directly and
	// ignores Deadline. Used by experiments sweeping the gap-vs-time
	// curve.
	MoveBudget int
}

func (rc RaceConfig) budget() int {
	if rc.MoveBudget > 0 {
		return rc.MoveBudget
	}
	d := rc.Deadline
	if d <= 0 {
		d = DefaultSearchDeadline
	}
	b := int(d.Nanoseconds() / evalNanos)
	if b < 64 {
		b = 64
	}
	if b > 1<<20 {
		b = 1 << 20
	}
	return b
}

func (rc RaceConfig) gap() float64 {
	if rc.MaxGap > 0 {
		return rc.MaxGap
	}
	return DefaultMaxGap
}

// EnableSearch arms the search-vs-simplex race for every shard. Call
// before the first Optimize.
func (s *ShardedOptimizer) EnableSearch(rc RaceConfig) {
	s.race = &rc
}

// raceOutcome is how the race served one dirty shard. Solves return it
// instead of counting it, so that shards solve concurrently without
// sharing a counter; Optimize counts it in shard order.
type raceOutcome uint8

const (
	unraced    raceOutcome = iota // race not armed, or no incumbent yet
	searchWon                     // search certified its table within the gap
	simplexWon                    // search abandoned its candidate; the simplex ran
)

// count adds the outcome to the race counters.
func (r raceOutcome) count(st *OptimizerStats) {
	switch r {
	case searchWon:
		st.SearchSolves++
	case simplexWon:
		st.SimplexWins++
		st.GapAbandoned++
	}
}

// solveShard serves one dirty shard in the given simplex scratch: race
// the anytime search against the warm simplex when armed, else (or when
// search loses) run the simplex alone. It writes only the shard's state.
func (s *ShardedOptimizer) solveShard(sh *shard, solver *lp.Solver, demand Demand, profiles Profiles, version uint64) (*Plan, raceOutcome, error) {
	race := unraced
	if s.race != nil && sh.plan != nil {
		if plan, ok := s.trySearch(sh, demand, profiles, version); ok {
			return plan, searchWon, nil
		}
		race = simplexWon
	}
	plan, err := sh.opt.solve(solver, demand, profiles, version)
	return plan, race, err
}

// trySearch runs the search leg of the race for one shard and returns
// its plan iff the result certifies within the gap. Every rejection —
// infeasible table, lost flow, or gap too wide — abandons the candidate
// and sends the shard to the simplex.
func (s *ShardedOptimizer) trySearch(sh *shard, demand Demand, profiles Profiles, version uint64) (*Plan, bool) {
	if sh.search == nil {
		sh.search = search.New(s.top, sh.app, search.Params{
			LatencyWeight: s.cfg.LatencyWeight,
			CostWeight:    s.cfg.CostWeight,
		})
	}
	// Bring the shard's exact LP up to this tick first: the search prices
	// pools on the segments it holds (one linearization per profile value),
	// and the candidate is scored against it below.
	if err := sh.opt.ensure(demand, profiles); err != nil {
		return nil, false
	}
	poolFn := func(svc appgraph.ServiceID, c topology.ClusterID) (search.PoolParams, bool) {
		pr, ok := sh.opt.f.poolIdx[PoolKey{Service: svc, Cluster: c}]
		if !ok {
			return search.PoolParams{}, false
		}
		return search.PoolParams{Ref: pr.profile.RefServiceTime.Seconds(), Segs: pr.segs}, true
	}
	if err := sh.search.Reset(demand, poolFn, sh.plan.Table); err != nil {
		return nil, false
	}
	res := sh.search.Run(s.race.budget())
	if !res.Feasible || res.Gap > s.race.gap() {
		return nil, false
	}
	table := sh.search.Table(version)

	// Authoritative scoring: assign the table onto the shard's exact LP
	// and re-check feasibility and the certified gap there. The search's
	// internal objective mirrors the LP, but the LP is the contract —
	// defense in depth against any drift between the two models.
	x, err := sh.opt.f.assign(table, demand)
	if err != nil {
		return nil, false
	}
	if err := sh.opt.f.model.CheckFeasible(x, 1e-6); err != nil {
		return nil, false
	}
	obj := sh.opt.f.model.EvalObjective(x)
	gap := 0.0
	if obj > res.LowerBound && obj > 0 {
		gap = (obj - res.LowerBound) / obj
	}
	if gap > s.race.gap() {
		return nil, false
	}
	sol := &lp.Solution{Status: lp.Optimal, Objective: obj, X: x}
	return sh.opt.f.extract(sol, demand, version), true
}
