package lp

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Solver runs the simplex on one model after another and keeps the
// tableau of its last optimal solve: the rows B⁻¹A at the optimal basis
// B. When the next solve of the same model starts from that basis and
// the model changed since only in right-hand sides and costs, the solve
// resumes from those rows instead of rebuilding the tableau and pivoting
// the basis in (see SolveWith). Every buffer is kept, so a control loop
// re-solving every tick allocates nothing per solve but its Solution
// once they have grown to the problem's size. A Solver may be reused
// across models of different shapes but is not safe for concurrent use.
type Solver struct {
	t   tableau
	own *Workspace // a nil-Workspace SolveWith's, made on first use
}

// Workspace is the storage a solve works in beyond the packed rows and
// basis a Solver keeps: the rows as they are pivoted, the right-hand
// side, the objective rows, the column lists, the wide rows' dense
// storage and the pricing tree. Each buffer keeps its high-water mark
// (but see settle). A goroutine that solves many models in turn — a
// worker serving a control loop's shards — holds one Workspace and one
// Solver per model, so that every model keeps its tableau while the
// working storage is paid for once per worker. Not safe for concurrent
// use.
type Workspace struct {
	s scratch
	// resumed counts the solves in a row, since the last that installed a
	// basis or solved cold, that resumed from a kept tableau; keptFlat is
	// the most dense row storage they used.
	resumed, keptFlat int
}

// trimAfter is the number of resumed solves in a row after which a
// Workspace lets go of dense row storage beyond twice what they used.
const trimAfter = 32

// settle ends a solve in w. An install widens some hundred rows of a
// routing tableau, a resumed solve a few dozen, so a Workspace that has
// served only resumed solves for trimAfter solves gives back what an
// install grew beyond twice their need. One that still sees installs
// keeps it: a worker whose shards mix the two would otherwise allocate
// it again on every install.
func (w *Workspace) settle(resumed bool) {
	if !resumed {
		w.resumed, w.keptFlat = 0, 0
		return
	}
	w.resumed++
	w.keptFlat = max(w.keptFlat, len(w.s.flat))
	if w.resumed >= trimAfter && cap(w.s.flat) > 2*w.keptFlat {
		w.s.flat = nil
	}
}

// NewWorkspace returns an empty Workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// NewSolver returns a Solver with empty storage.
func NewSolver() *Solver { return &Solver{} }

// Forget drops the kept tableau, keeping its storage: the next solve
// from a basis installs it, as a Solver that never solved the model
// would.
func (s *Solver) Forget() { s.t.kept = nil }

// keptTol is the relative tolerance (Model.CheckFeasible's) to which a
// point reached from kept rows must satisfy the model: those rows carry
// the roundoff of every earlier solve's pivots, a fresh install only its
// own, so a resumed solve checks its answer and re-solves from an
// install when the check fails.
const keptTol = 1e-9

// SolveWith minimizes the model starting from a previously optimal
// basis (as recorded in Solution.Basis), working in w. Phase 1 is
// skipped when the basis fits the model's shape. If the basis is still
// primal feasible under the current right-hand side — the steady-state
// case for a control loop whose demand drifts between ticks — phase 2
// re-optimizes in a handful of pivots. If demand moved far enough that a
// basic value went negative, but the objective did not move, the basis
// is still dual feasible and a few dual simplex pivots repair it first
// (Solution.DualPivots).
//
// The basis comes from one of two places. When it is the basis of the
// Solver's last solve, that solve was of this model and ended optimal,
// and the model has changed since only in costs and in right-hand sides
// that kept their signs, the Solver still holds its rows B⁻¹A: the new
// basic values B⁻¹b are read off them, the costs are the model's
// current ones, and the solve goes on from there (Solution.Kept). A
// point so reached that breaks a constraint beyond keptTol is thrown
// away. Otherwise the model's tableau is built afresh
// and the basis pivoted in. Either way, when the basis cannot be
// finished — it does not install, an objective that moved left it
// beyond repair, no basis satisfies the right-hand side — SolveWith
// transparently falls back to a cold solve; the only error callers see
// beyond a cold solve's is ErrIterLimit, and only when both the warm and
// cold paths exceed the pivot budget.
//
// A nil or empty basis is an explicit cold start. A nil w is the
// Solver's own Workspace.
func (s *Solver) SolveWith(w *Workspace, m *Model, basis []int) (*Solution, error) {
	if w == nil {
		if s.own == nil {
			s.own = NewWorkspace()
		}
		w = s.own
	}
	t := &s.t
	t.scratch = w.s
	sol, err := t.solveFrom(m, basis)
	t.keep(m, sol)
	w.s, t.scratch = t.scratch, scratch{}
	w.settle(sol != nil && sol.Kept)
	return sol, err
}

// solveFrom is SolveWith in the attached scratch.
func (t *tableau) solveFrom(m *Model, basis []int) (*Solution, error) {
	if len(basis) == 0 {
		return t.cold(m)
	}
	if t.resume(m, basis) {
		sol, err := t.finishWarm(m)
		if sol != nil && (sol.Status != Optimal || m.CheckFeasible(sol.X, keptTol) == nil) {
			sol.Warm, sol.Kept = true, true
			return sol, nil
		}
		if err != nil && !errors.Is(err, ErrIterLimit) {
			return nil, err
		}
		// The kept rows could not be finished warm, or drifted: install
		// the basis afresh.
	}
	if err := t.load(m); err != nil {
		return nil, err
	}
	if t.warmStart(basis) {
		sol, err := t.finishWarm(m)
		if sol != nil {
			sol.Warm = true
			return sol, nil
		}
		if err != nil && !errors.Is(err, ErrIterLimit) {
			return nil, err
		}
		// The installed basis could not be finished warm (see
		// finishWarm), or warm pivots exhausted the budget (cycling from a
		// bad start); the cold path may still converge.
	}
	return t.cold(m)
}

// cold solves the model from the all-slack/artificial start.
func (t *tableau) cold(m *Model) (*Solution, error) {
	if err := t.load(m); err != nil {
		return nil, err
	}
	return t.solve(m)
}

// SetRHS replaces the right-hand side of constraint i (in AddConstraint
// order). Together with SetCoef and SetObj this lets a control loop
// mutate a cached model between ticks instead of rebuilding it.
func (m *Model) SetRHS(i int, rhs float64) error {
	if i < 0 || i >= len(m.cons) {
		return fmt.Errorf("lp: SetRHS: constraint index %d out of range [0,%d)", i, len(m.cons))
	}
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return fmt.Errorf("lp: SetRHS: constraint %q given non-finite rhs %v", m.cons[i].name, rhs)
	}
	m.cons[i].rhs = rhs
	return nil
}

// SetCoef replaces variable v's coefficient in constraint i (in
// AddConstraint order). Setting a coefficient the constraint does not
// yet mention inserts a term; setting an absent coefficient to zero is a
// no-op.
func (m *Model) SetCoef(i int, v Var, coef float64) error {
	if i < 0 || i >= len(m.cons) {
		return fmt.Errorf("lp: SetCoef: constraint index %d out of range [0,%d)", i, len(m.cons))
	}
	if int(v) < 0 || int(v) >= len(m.vars) {
		return fmt.Errorf("lp: SetCoef: constraint %q references unknown variable %d", m.cons[i].name, v)
	}
	if math.IsNaN(coef) || math.IsInf(coef, 0) {
		return fmt.Errorf("lp: SetCoef: constraint %q given non-finite coefficient %v for %s", m.cons[i].name, coef, m.vars[v].name)
	}
	terms := m.cons[i].terms
	j := sort.Search(len(terms), func(k int) bool { return terms[k].Var >= v })
	if j < len(terms) && terms[j].Var == v {
		if terms[j].Coef != coef { //slate:nolint floatcmp -- an unchanged coefficient is no edit
			m.edits++
		}
		terms[j].Coef = coef
		return nil
	}
	if coef == 0 { //slate:nolint floatcmp -- sparsity: absent zero terms stay absent
		return nil
	}
	terms = append(terms, Term{})
	copy(terms[j+1:], terms[j:])
	terms[j] = Term{Var: v, Coef: coef}
	m.cons[i].terms = terms
	m.edits++
	return nil
}
