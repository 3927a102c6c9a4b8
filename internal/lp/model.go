// Package lp implements a self-contained linear programming solver — a
// two-phase primal simplex on a sparse tableau.
//
// SLATE's global controller formulates request routing as an
// optimization (paper §3.3: "formulated as a Mixed Integer Linear
// Program"). With convex piecewise-linear latency costs the continuous
// relaxation is exact, so the routing problem is a pure LP. The solver
// stays a tableau simplex with textbook pivoting rules, but stores the
// tableau by its nonzeros: a shard of a generated 48-cluster deployment
// is some 700 rows by 1 800 columns of which under 1 % are nonzero, and
// pivoting keeps it so (a pivot row holds a dozen entries); the rows that
// do fill in, most of them in a monolithic LP, switch to dense arrays. A
// reusable Solver keeps its storage across solves and warm-starts from
// the previous tick's basis (see Solver.SolveFrom).
package lp

import (
	"fmt"
	"math"
	"sort"
)

// Var identifies a decision variable within a Model.
type Var int

// Rel is a constraint relation.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // ≤
	GE            // ≥
	EQ            // =
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Rel(%d)", int(r))
	}
}

// Term is one coefficient of a linear expression.
type Term struct {
	Var  Var
	Coef float64
}

type variable struct {
	name  string
	obj   float64
	upper float64 // +Inf when unbounded above
}

type constraint struct {
	name  string
	terms []Term
	rel   Rel
	rhs   float64
}

// Model is a linear program under construction: minimize c·x subject to
// linear constraints, x ≥ 0, with optional upper bounds. Not safe for
// concurrent use.
type Model struct {
	vars []variable
	cons []constraint
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// AddVar adds a variable with objective coefficient obj and domain
// x ≥ 0 (no upper bound). The name is used in error messages only.
func (m *Model) AddVar(name string, obj float64) Var {
	m.vars = append(m.vars, variable{name: name, obj: obj, upper: math.Inf(1)})
	return Var(len(m.vars) - 1)
}

// SetUpper bounds the variable above: x ≤ hi.
func (m *Model) SetUpper(v Var, hi float64) {
	m.vars[v].upper = hi
}

// SetObj replaces the variable's objective coefficient.
func (m *Model) SetObj(v Var, obj float64) {
	m.vars[v].obj = obj
}

// NumVars returns the number of variables added so far.
func (m *Model) NumVars() int { return len(m.vars) }

// NumConstraints returns the number of constraints added so far.
func (m *Model) NumConstraints() int { return len(m.cons) }

// AddConstraint adds Σ terms rel rhs. Terms referencing the same
// variable are summed. It returns an error for out-of-range variables
// or non-finite coefficients.
func (m *Model) AddConstraint(name string, terms []Term, rel Rel, rhs float64) error {
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return fmt.Errorf("lp: constraint %q has non-finite rhs %v", name, rhs)
	}
	for _, t := range terms {
		if int(t.Var) < 0 || int(t.Var) >= len(m.vars) {
			return fmt.Errorf("lp: constraint %q references unknown variable %d", name, t.Var)
		}
		if math.IsNaN(t.Coef) || math.IsInf(t.Coef, 0) {
			return fmt.Errorf("lp: constraint %q has non-finite coefficient for %s", name, m.vars[t.Var].name)
		}
	}
	// Sort a copy by variable and merge duplicate mentions, keeping terms
	// in ascending Var order (SetCoef's binary search relies on this).
	// Sorting len(terms) beats the old per-constraint scan over every
	// model variable, which made model construction O(cons·vars).
	out := make([]Term, len(terms))
	copy(out, terms)
	sort.Slice(out, func(i, j int) bool { return out[i].Var < out[j].Var })
	k := 0
	for i := 0; i < len(out); {
		v, c := out[i].Var, out[i].Coef
		for i++; i < len(out) && out[i].Var == v; i++ {
			c += out[i].Coef
		}
		if c != 0 { //slate:nolint floatcmp -- sparsity: drop exactly-cancelled terms only
			out[k] = Term{Var: v, Coef: c}
			k++
		}
	}
	m.cons = append(m.cons, constraint{name: name, terms: out[:k], rel: rel, rhs: rhs})
	return nil
}

// MustConstraint is AddConstraint that panics on error, for construction
// code whose inputs are programmatically correct.
func (m *Model) MustConstraint(name string, terms []Term, rel Rel, rhs float64) {
	if err := m.AddConstraint(name, terms, rel, rhs); err != nil {
		panic(err)
	}
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the result of a solve.
type Solution struct {
	Status    Status
	Objective float64
	// X holds the value of each variable, indexed by Var. Only valid
	// when Status == Optimal.
	X []float64
	// Basis is the optimal simplex basis (one tableau column per
	// constraint row, in solver-internal numbering). Hand it to
	// Solver.SolveFrom to warm-start a nearby problem — typically the
	// next control tick, after demand drifted. Only valid when
	// Status == Optimal.
	Basis []int
	// Warm reports whether this solve installed a warm-started basis and
	// skipped phase 1 (see Solver.SolveFrom).
	Warm bool
}

// Value returns the solved value of v.
func (s *Solution) Value(v Var) float64 { return s.X[v] }
