package lp

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Solver runs the simplex in storage that persists across solves: the
// sparse tableau's rows, column lists and objective rows keep their
// buffers, so a control loop re-solving every tick allocates nothing per
// solve but its Solution once they have grown to the problem's size. A
// Solver may be reused across models of different shapes (each buffer
// tracks its high-water mark) but is not safe for concurrent use; create
// one Solver per goroutine.
type Solver struct {
	t tableau
}

// NewSolver returns a Solver with empty scratch.
func NewSolver() *Solver { return &Solver{} }

// Solve minimizes the model from a cold start (phase 1 to find a
// feasible vertex, then phase 2). The returned Solution records the
// optimal basis, which a later call can hand to SolveFrom to warm-start
// a nearby problem.
func (s *Solver) Solve(m *Model) (*Solution, error) {
	if err := s.t.load(m); err != nil {
		return nil, err
	}
	return s.t.solve(m)
}

// SolveFrom minimizes the model starting from a previously optimal
// basis (as recorded in Solution.Basis). When the basis still fits the
// model's shape and remains primal-feasible under the current
// right-hand side — the steady-state case for a control loop whose
// demand drifts between ticks — phase 1 is skipped entirely and phase 2
// re-optimizes in a handful of pivots. Otherwise SolveFrom transparently
// falls back to a cold Solve; the only error callers see beyond Solve's
// is ErrIterLimit, and only when both the warm and cold paths exceed the
// pivot budget.
//
// A nil or empty basis is an explicit cold start.
func (s *Solver) SolveFrom(m *Model, basis []int) (*Solution, error) {
	if len(basis) == 0 {
		return s.Solve(m)
	}
	if err := s.t.load(m); err != nil {
		return nil, err
	}
	if s.t.warmStart(basis) {
		sol, err := s.t.finishPhase2(m)
		if err == nil {
			sol.Warm = true
			return sol, nil
		}
		if !errors.Is(err, ErrIterLimit) {
			return nil, err
		}
		// Warm pivots exhausted the budget (cycling from a bad start);
		// the cold path may still converge.
	}
	return s.Solve(m)
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
	return nil
}
