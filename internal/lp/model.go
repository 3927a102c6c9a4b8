// Package lp implements a self-contained linear programming solver — a
// two-phase primal simplex on a sparse tableau — for the standard form
// min c·x s.t. A x = b, b ≥ 0, 0 ≤ x ≤ u, the form of the routing LP.
// Every Model setter refuses what that form does not allow, so a solve
// has nothing to normalise; an inequality takes a slack column.
//
// SLATE's global controller formulates request routing as an
// optimization (paper §3.3: "formulated as a Mixed Integer Linear
// Program"). With convex piecewise-linear latency costs the continuous
// relaxation is exact, so the routing problem is a pure LP. The solver
// stays a tableau simplex with textbook pivoting rules, but stores the
// tableau by its nonzeros: a shard of a generated 48-cluster deployment
// is some 660 rows by 1 644 columns of which under 1 % are nonzero, and
// pivoting keeps it so (a pivot row holds a dozen entries); the rows that
// do fill in, most of them in a monolithic LP, switch to dense arrays. A
// reusable Solver warm-starts from the previous tick's basis, repairing
// it with dual simplex pivots when demand left it infeasible, and keeps
// the tableau of its last optimal solve: when only right-hand sides and
// costs moved since, the next solve resumes from it instead of pivoting
// the basis in again (see Solver.Solve). The storage a solve works in is a
// Workspace, which a worker serving many models' Solvers holds once.
//
// A Model holds numbers only: its variables and constraints are known by
// their index, and an error about one is an *Error that names it so.
// The code that built the model knows what each index stands for and
// names them in its own terms (Error.Named) on the failure path, so a
// model costs no string per row or column.
package lp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// Var identifies a decision variable within a Model.
type Var int

// Term is one coefficient of a linear expression.
type Term struct {
	Var  Var
	Coef float64
}

type variable struct {
	obj   float64
	upper float64 // +Inf when unbounded above
}

// constraint is the row Σ terms = rhs, rhs ≥ 0.
type constraint struct {
	terms []Term
	rhs   float64
}

// An Error is an lp error about one constraint row or one variable
// column of a Model, or both. A model holds numbers only, so the error
// names them by index ("constraint #3", "variable #17"); the code that
// built the model knows what each index stands for and can name them
// with Named.
type Error struct {
	// Row is the constraint the error is about, in AddConstraint order,
	// and Col the variable; each is -1 when the error is not about one.
	Row, Col int
	// format is the text with the row at %[1] and the column at %[2];
	// args are its operands from %[3] on.
	format   string
	args     []any
	row, col string // the names Named gave; "" names by index
}

func errorAt(row, col int, format string, args ...any) *Error {
	return &Error{Row: row, Col: col, format: format, args: args}
}

func (e *Error) Error() string {
	row, col := e.row, e.col
	if row == "" && e.Row >= 0 {
		row = "#" + strconv.Itoa(e.Row)
	}
	if col == "" && e.Col >= 0 {
		col = "#" + strconv.Itoa(e.Col)
	}
	return fmt.Sprintf(e.format, append([]any{row, col}, e.args...)...)
}

// Named returns a copy of the error that names its row by row(Row) and
// its column by col(Col) instead of by index.
func (e *Error) Named(row, col func(int) string) *Error {
	n := *e
	if e.Row >= 0 {
		n.row = row(e.Row)
	}
	if e.Col >= 0 {
		n.col = col(e.Col)
	}
	return &n
}

// Model is a linear program in standard form under construction:
// minimize c·x subject to equality rows with right-hand sides ≥ 0,
// x ≥ 0, with optional upper bounds. Not safe for concurrent use.
type Model struct {
	vars []variable
	cons []constraint
	// slab is the chunk of term storage the next row is cut from, so a
	// model holds a few chunks instead of an array per row. Each row is a
	// capacity-limited sub-slice of one chunk: SetCoef's insert into it
	// reallocates that row alone, and no row spans two chunks.
	slab []Term
	// edits counts the changes to the constraint matrix and the row set —
	// not to a right-hand side, a finite upper bound's included, nor to a
	// cost — so that a Solver can tell whether the tableau it kept still
	// has this model's rows.
	edits uint64
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// AddVar adds a variable with objective coefficient obj and domain
// x ≥ 0 (no upper bound).
func (m *Model) AddVar(obj float64) Var {
	m.vars = append(m.vars, variable{obj: obj, upper: math.Inf(1)})
	m.edits++
	return Var(len(m.vars) - 1)
}

// SetUpper bounds the variable above: x ≤ hi; +Inf lifts the bound. It
// returns an *Error, the model unchanged, for a bound below 0 or NaN.
func (m *Model) SetUpper(v Var, hi float64) error {
	if !(hi >= 0) {
		return errorAt(-1, int(v), "lp: SetUpper: variable %[2]s given upper bound %[3]v outside [0, +Inf]", hi)
	}
	if math.IsInf(hi, 1) != math.IsInf(m.vars[v].upper, 1) {
		m.edits++ // the bound's row comes or goes
	}
	m.vars[v].upper = hi
	return nil
}

// SetObj replaces the variable's objective coefficient.
func (m *Model) SetObj(v Var, obj float64) {
	m.vars[v].obj = obj
}

// NumVars returns the number of variables added so far.
func (m *Model) NumVars() int { return len(m.vars) }

// NumConstraints returns the number of constraints added so far.
func (m *Model) NumConstraints() int { return len(m.cons) }

// AddConstraint adds Σ terms = rhs as the next row. Terms referencing
// the same variable are summed. It returns an *Error, the model
// unchanged, for a non-finite or negative rhs, out-of-range variables or
// non-finite coefficients. The model keeps a copy of terms, so the
// caller may reuse the slice.
func (m *Model) AddConstraint(terms []Term, rhs float64) error {
	row := len(m.cons)
	if err := rhsErr(row, "lp: constraint %[1]q has", rhs); err != nil {
		return err
	}
	for _, t := range terms {
		if int(t.Var) < 0 || int(t.Var) >= len(m.vars) {
			return errorAt(row, -1, "lp: constraint %[1]q references unknown variable %[3]d", t.Var)
		}
		if math.IsNaN(t.Coef) || math.IsInf(t.Coef, 0) {
			return errorAt(row, int(t.Var), "lp: constraint %[1]q has non-finite coefficient for %[2]s")
		}
	}
	// Sort a copy by variable and merge duplicate mentions, keeping terms
	// in ascending Var order (SetCoef's binary search relies on this).
	// Sorting len(terms) beats the old per-constraint scan over every
	// model variable, which made model construction O(cons·vars).
	// The sort is not stable: duplicate mentions sum in the order
	// slices.SortFunc's pattern-defeating quicksort leaves them in, which
	// is sort.Slice's, comparison for comparison
	// (TestAddConstraintMatchesSortSlice).
	if cap(m.slab)-len(m.slab) < len(terms) {
		m.slab = make([]Term, 0, max(slabTerms, len(terms)))
	}
	start := len(m.slab)
	out := append(m.slab, terms...)[start:]
	slices.SortFunc(out, func(a, b Term) int { return cmp.Compare(a.Var, b.Var) })
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
	m.slab = m.slab[:start+k]
	m.cons = append(m.cons, constraint{terms: out[:k:k], rhs: rhs})
	m.edits++
	return nil
}

// slabTerms is the size of a chunk of row storage, in terms: 8 kB.
const slabTerms = 512

// MustConstraint is AddConstraint that panics on error, for construction
// code whose inputs are programmatically correct.
func (m *Model) MustConstraint(terms []Term, rhs float64) {
	if err := m.AddConstraint(terms, rhs); err != nil {
		panic(err)
	}
}

// rhsErr is the *Error, its text after prefix, about row's right-hand
// side rhs unless rhs is finite and ≥ 0.
func rhsErr(row int, prefix string, rhs float64) error {
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return errorAt(row, -1, prefix+" non-finite rhs %[3]v", rhs)
	}
	if rhs < 0 {
		return errorAt(row, -1, prefix+" negative rhs %[3]v", rhs)
	}
	return nil
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
	// Solver.Solve to warm-start a nearby problem — typically the
	// next control tick, after demand drifted. Only valid when
	// Status == Optimal.
	Basis []int
	// Warm reports whether this solve installed a warm-started basis and
	// skipped phase 1 (see Solver.Solve).
	Warm bool
	// DualPivots counts the dual simplex pivots that repaired a warm
	// basis the right-hand side had left infeasible; 0 when the basis
	// needed none.
	DualPivots int
	// Kept reports a warm solve that resumed from the tableau the Solver
	// kept from its last solve of the model, instead of installing the
	// basis (see Solver.Solve).
	Kept bool
}

// Value returns the solved value of v.
func (s *Solution) Value(v Var) float64 { return s.X[v] }
