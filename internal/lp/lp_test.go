package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// rel is the sense of a row a test states. A Model holds equality rows
// with right-hand sides ≥ 0 only, so constrain writes an inequality in
// that form.
type rel int

const (
	le rel = iota // ≤
	ge            // ≥
	eq            // =
)

// constrain adds Σ terms r rhs to m as an equality row: a ≤ row gets a
// new slack column, +1, a ≥ row a new surplus column, −1, both of cost 0
// and unbounded, and a row whose rhs is negative is negated, that column
// and all.
func constrain(m *Model, terms []Term, r rel, rhs float64) {
	row := slices.Clone(terms)
	switch r {
	case le:
		row = append(row, Term{m.AddVar(0), 1})
	case ge:
		row = append(row, Term{m.AddVar(0), -1})
	}
	if rhs < 0 {
		for i := range row {
			row[i].Coef = -row[i].Coef
		}
		rhs = -rhs
	}
	m.MustConstraint(row, rhs)
}

// mustUpper is SetUpper for a bound the test knows is ≥ 0.
func mustUpper(m *Model, v Var, hi float64) {
	if err := m.SetUpper(v, hi); err != nil {
		panic(err)
	}
}

// solver is a Solver with a Workspace of its own, kept across its solves
// as a worker's is across the models it serves. Every test solves
// through it.
type solver struct {
	*Solver
	w *Workspace
}

func newSolver() solver { return solver{NewSolver(), NewWorkspace()} }

// solve minimizes m from basis (nil for a cold start) in s's Workspace.
func (s solver) solve(m *Model, basis []int) (*Solution, error) { return s.Solve(s.w, m, basis) }

// solve minimizes m from a cold start in a fresh solver.
func solve(m *Model) (*Solution, error) { return newSolver().solve(m, nil) }

func solveOK(t *testing.T, m *Model) *Solution {
	t.Helper()
	sol, err := solve(m)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	return sol
}

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-6*(1+math.Abs(b)) }

func TestSimplexTextbookMaximization(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (Dantzig's example)
	// Optimum: x=2, y=6, obj=36. As minimization of -(3x+5y).
	m := NewModel()
	x := m.AddVar(-3)
	y := m.AddVar(-5)
	constrain(m, []Term{{x, 1}}, le, 4)
	constrain(m, []Term{{y, 2}}, le, 12)
	constrain(m, []Term{{x, 3}, {y, 2}}, le, 18)
	sol := solveOK(t, m)
	if !almost(sol.Objective, -36) {
		t.Errorf("objective = %v, want -36", sol.Objective)
	}
	if !almost(sol.Value(x), 2) || !almost(sol.Value(y), 6) {
		t.Errorf("x=%v y=%v, want 2, 6", sol.Value(x), sol.Value(y))
	}
}

func TestSimplexEqualityAndSurplus(t *testing.T) {
	// min 2x + 3y s.t. x + y = 10, x >= 3, y >= 2, the two bounds below
	// written with surplus columns. Optimum x=8, y=2, obj=22.
	m := NewModel()
	x := m.AddVar(2)
	y := m.AddVar(3)
	m.MustConstraint([]Term{{x, 1}, {y, 1}}, 10)
	constrain(m, []Term{{x, 1}}, ge, 3)
	constrain(m, []Term{{y, 1}}, ge, 2)
	sol := solveOK(t, m)
	if !almost(sol.Objective, 22) {
		t.Errorf("objective = %v, want 22", sol.Objective)
	}
	if !almost(sol.Value(x), 8) || !almost(sol.Value(y), 2) {
		t.Errorf("x=%v y=%v, want 8, 2", sol.Value(x), sol.Value(y))
	}
}

func TestSimplexInfeasible(t *testing.T) {
	m := NewModel()
	x := m.AddVar(1)
	constrain(m, []Term{{x, 1}}, le, 1)
	constrain(m, []Term{{x, 1}}, ge, 2)
	sol, err := solve(m)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestSimplexUnbounded(t *testing.T) {
	m := NewModel()
	x := m.AddVar(-1) // maximize x, no upper limit
	constrain(m, []Term{{x, 1}}, ge, 0)
	sol, err := solve(m)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestSimplexUpperBounds(t *testing.T) {
	// min -x - y with x <= 2.5, y <= 1.5 -> obj = -4.
	m := NewModel()
	x := m.AddVar(-1)
	y := m.AddVar(-1)
	mustUpper(m, x, 2.5)
	mustUpper(m, y, 1.5)
	sol := solveOK(t, m)
	if !almost(sol.Objective, -4) {
		t.Errorf("objective = %v, want -4", sol.Objective)
	}
}

// bealeLP is Beale's classic cycling example, its variables and its two
// degenerate rows in the order that makes Dantzig's rule cycle under this
// solver's ratio-test tie-break (in the textbook order it does not),
// with the basis of its three slack columns. A solve from that basis
// starts where the textbook's does and leaves the cycle only through
// Bland's rule; a cold solve's phase 1 takes another path.
func bealeLP() (*Model, []int) {
	m := NewModel()
	x4 := m.AddVar(6)
	x3 := m.AddVar(-0.02)
	x2 := m.AddVar(150)
	x1 := m.AddVar(-0.75)
	constrain(m, []Term{{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, le, 0)
	constrain(m, []Term{{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, le, 0)
	constrain(m, []Term{{x3, 1}}, le, 1)
	return m, []int{4, 5, 6}
}

func TestSimplexDegenerate(t *testing.T) {
	// Beale's cycling example must terminate with optimum -0.05, solved
	// cold and from the slack basis, where Dantzig's rule cycles.
	m, slacks := bealeLP()
	for _, basis := range [][]int{nil, slacks} {
		sol, err := newSolver().solve(m, basis)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("basis %v: %v, %+v", basis, err, sol)
		}
		if !almost(sol.Objective, -0.05) {
			t.Errorf("basis %v: objective = %v, want -0.05", basis, sol.Objective)
		}
	}
}

func TestSimplexZeroRHSEquality(t *testing.T) {
	// Flow-conservation-style constraint with rhs 0.
	m := NewModel()
	in := m.AddVar(0)
	out := m.AddVar(1)
	m.MustConstraint([]Term{{in, 1}, {out, -1}}, 0)
	constrain(m, []Term{{in, 1}}, ge, 5)
	sol := solveOK(t, m)
	if !almost(sol.Value(out), 5) {
		t.Errorf("out = %v, want 5", sol.Value(out))
	}
}

func TestSimplexMergesDuplicateTerms(t *testing.T) {
	m := NewModel()
	x := m.AddVar(1)
	// x + x >= 6 -> x >= 3.
	constrain(m, []Term{{x, 1}, {x, 1}}, ge, 6)
	sol := solveOK(t, m)
	if !almost(sol.Value(x), 3) {
		t.Errorf("x = %v, want 3", sol.Value(x))
	}
}

func TestConstraintValidation(t *testing.T) {
	m := NewModel()
	x := m.AddVar(1)
	if err := m.AddConstraint([]Term{{Var(5), 1}}, 1); err == nil {
		t.Error("unknown var should error")
	}
	if err := m.AddConstraint([]Term{{x, math.NaN()}}, 1); err == nil {
		t.Error("NaN coefficient should error")
	}
	if err := m.AddConstraint([]Term{{x, 1}}, math.Inf(1)); err == nil {
		t.Error("infinite rhs should error")
	}
	if err := m.SetUpper(x, -1); err == nil {
		t.Error("negative upper bound should error")
	}
	if err := m.AddConstraint([]Term{{x, 1}}, -1); err == nil {
		t.Error("negative rhs should error")
	}
}

func TestRedundantConstraints(t *testing.T) {
	// Same equality twice: the second is redundant; artificial stays at
	// zero and the solve must still succeed.
	m := NewModel()
	x := m.AddVar(1)
	y := m.AddVar(1)
	m.MustConstraint([]Term{{x, 1}, {y, 1}}, 4)
	m.MustConstraint([]Term{{x, 1}, {y, 1}}, 4)
	sol := solveOK(t, m)
	if !almost(sol.Objective, 4) {
		t.Errorf("objective = %v, want 4", sol.Objective)
	}
}

// bruteForce enumerates all vertices of {Ax rel b, 0 <= x <= ub} for tiny
// problems by solving every n-subset of the active-constraint system, and
// returns the best feasible objective (min). Used as ground truth.
func bruteForce(obj []float64, cons []struct {
	a   []float64
	rel rel
	rhs float64
}, ub []float64) (float64, bool) {
	n := len(obj)
	// Build the full list of hyperplanes: constraints as equalities,
	// x_j = 0, x_j = ub_j.
	var planes []plane
	for _, c := range cons {
		planes = append(planes, plane{c.a, c.rhs})
	}
	for j := 0; j < n; j++ {
		e := make([]float64, n)
		e[j] = 1
		planes = append(planes, plane{e, 0})
		if !math.IsInf(ub[j], 1) {
			planes = append(planes, plane{e, ub[j]})
		}
	}
	feasible := func(x []float64) bool {
		for j := 0; j < n; j++ {
			if x[j] < -1e-7 || x[j] > ub[j]+1e-7 {
				return false
			}
		}
		for _, c := range cons {
			dot := 0.0
			for j := 0; j < n; j++ {
				dot += c.a[j] * x[j]
			}
			switch c.rel {
			case le:
				if dot > c.rhs+1e-7 {
					return false
				}
			case ge:
				if dot < c.rhs-1e-7 {
					return false
				}
			case eq:
				if math.Abs(dot-c.rhs) > 1e-7 {
					return false
				}
			}
		}
		return true
	}
	best := math.Inf(1)
	found := false
	// Choose n planes, solve, check.
	idx := make([]int, n)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == n {
			x, ok := solveSquare(planes, idx, n)
			if ok && feasible(x) {
				found = true
				v := 0.0
				for j := 0; j < n; j++ {
					v += obj[j] * x[j]
				}
				if v < best {
					best = v
				}
			}
			return
		}
		for i := start; i < len(planes); i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	return best, found
}

type plane struct {
	a   []float64
	rhs float64
}

func solveSquare(planes []plane, idx []int, n int) ([]float64, bool) {
	// Gaussian elimination on the n x n system.
	a := make([][]float64, n)
	for i := 0; i < n; i++ {
		a[i] = make([]float64, n+1)
		copy(a[i], planes[idx[i]].a)
		a[i][n] = planes[idx[i]].rhs
	}
	for col := 0; col < n; col++ {
		p := -1
		for r := col; r < n; r++ {
			if math.Abs(a[r][col]) > 1e-9 {
				p = r
				break
			}
		}
		if p < 0 {
			return nil, false
		}
		a[col], a[p] = a[p], a[col]
		f := a[col][col]
		for j := col; j <= n; j++ {
			a[col][j] /= f
		}
		for r := 0; r < n; r++ {
			if r != col && a[r][col] != 0 { //slate:nolint floatcmp -- reference elimination skips structurally exact zeros
				f := a[r][col]
				for j := col; j <= n; j++ {
					a[r][j] -= f * a[col][j]
				}
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = a[i][n]
	}
	return x, true
}

func TestSimplexAgainstBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(3) // 2..4 vars
		k := 1 + rng.Intn(3) // 1..3 constraints
		obj := make([]float64, n)
		ub := make([]float64, n)
		for j := range obj {
			obj[j] = math.Round((rng.Float64()*4-2)*4) / 4
			ub[j] = float64(1 + rng.Intn(5))
		}
		cons := make([]struct {
			a   []float64
			rel rel
			rhs float64
		}, k)
		for i := range cons {
			a := make([]float64, n)
			for j := range a {
				a[j] = math.Round((rng.Float64()*4-2)*4) / 4
			}
			cons[i].a = a
			cons[i].rel = rel(rng.Intn(3))
			cons[i].rhs = math.Round((rng.Float64()*8-2)*4) / 4
		}
		wantObj, feasible := bruteForce(obj, cons, ub)

		m := NewModel()
		vars := make([]Var, n)
		for j := 0; j < n; j++ {
			vars[j] = m.AddVar(obj[j])
			mustUpper(m, vars[j], ub[j])
		}
		for _, c := range cons {
			terms := make([]Term, n)
			for j := 0; j < n; j++ {
				terms[j] = Term{vars[j], c.a[j]}
			}
			constrain(m, terms, c.rel, c.rhs)
		}
		sol, err := solve(m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !feasible {
			if sol.Status == Optimal {
				t.Fatalf("trial %d: simplex found optimum %v but brute force says infeasible", trial, sol.Objective)
			}
			continue
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v, brute force found %v", trial, sol.Status, wantObj)
		}
		if math.Abs(sol.Objective-wantObj) > 1e-6*(1+math.Abs(wantObj)) {
			t.Fatalf("trial %d: objective %v, brute force %v", trial, sol.Objective, wantObj)
		}
	}
}

func TestLargeLPPerformanceSanity(t *testing.T) {
	// A transportation problem: 20 sources x 20 sinks with random costs.
	// Verifies the solver handles a few hundred variables.
	rng := rand.New(rand.NewSource(7))
	const s, d = 20, 20
	m := NewModel()
	x := make([][]Var, s)
	for i := range x {
		x[i] = make([]Var, d)
		for j := range x[i] {
			x[i][j] = m.AddVar(1 + rng.Float64()*9)
		}
	}
	for i := 0; i < s; i++ {
		terms := make([]Term, d)
		for j := 0; j < d; j++ {
			terms[j] = Term{x[i][j], 1}
		}
		m.MustConstraint(terms, 10)
	}
	for j := 0; j < d; j++ {
		terms := make([]Term, s)
		for i := 0; i < s; i++ {
			terms[i] = Term{x[i][j], 1}
		}
		m.MustConstraint(terms, 10)
	}
	sol := solveOK(t, m)
	// Total shipped is 200; min cost must be >= 200 * min cost ~ 200.
	if sol.Objective < 200 {
		t.Errorf("objective %v below theoretical floor", sol.Objective)
	}
}
