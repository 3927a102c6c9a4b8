package lp

import (
	"math"
	"math/rand"
	"testing"
)

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
	m.MustConstraint([]Term{{x, 1}}, LE, 4)
	m.MustConstraint([]Term{{y, 2}}, LE, 12)
	m.MustConstraint([]Term{{x, 3}, {y, 2}}, LE, 18)
	sol := solveOK(t, m)
	if !almost(sol.Objective, -36) {
		t.Errorf("objective = %v, want -36", sol.Objective)
	}
	if !almost(sol.Value(x), 2) || !almost(sol.Value(y), 6) {
		t.Errorf("x=%v y=%v, want 2, 6", sol.Value(x), sol.Value(y))
	}
}

func TestSimplexEqualityAndGE(t *testing.T) {
	// min 2x + 3y s.t. x + y = 10, x >= 3, y >= 2. Optimum x=8, y=2, obj=22.
	m := NewModel()
	x := m.AddVar(2)
	y := m.AddVar(3)
	m.MustConstraint([]Term{{x, 1}, {y, 1}}, EQ, 10)
	m.MustConstraint([]Term{{x, 1}}, GE, 3)
	m.MustConstraint([]Term{{y, 1}}, GE, 2)
	sol := solveOK(t, m)
	if !almost(sol.Objective, 22) {
		t.Errorf("objective = %v, want 22", sol.Objective)
	}
	if !almost(sol.Value(x), 8) || !almost(sol.Value(y), 2) {
		t.Errorf("x=%v y=%v, want 8, 2", sol.Value(x), sol.Value(y))
	}
}

func TestSimplexNegativeRHSNormalization(t *testing.T) {
	// -x - y <= -4  is x + y >= 4; min x + 2y -> x=4, y=0.
	m := NewModel()
	x := m.AddVar(1)
	y := m.AddVar(2)
	m.MustConstraint([]Term{{x, -1}, {y, -1}}, LE, -4)
	sol := solveOK(t, m)
	if !almost(sol.Objective, 4) || !almost(sol.Value(x), 4) {
		t.Errorf("obj=%v x=%v, want 4, 4", sol.Objective, sol.Value(x))
	}
}

func TestSimplexInfeasible(t *testing.T) {
	m := NewModel()
	x := m.AddVar(1)
	m.MustConstraint([]Term{{x, 1}}, LE, 1)
	m.MustConstraint([]Term{{x, 1}}, GE, 2)
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
	m.MustConstraint([]Term{{x, 1}}, GE, 0)
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
	m.SetUpper(x, 2.5)
	m.SetUpper(y, 1.5)
	sol := solveOK(t, m)
	if !almost(sol.Objective, -4) {
		t.Errorf("objective = %v, want -4", sol.Objective)
	}
}

// bealeLP is Beale's classic cycling example, its variables and its two
// degenerate rows in the order that makes Dantzig's rule cycle under this
// solver's ratio-test tie-break (in the textbook order it does not): the
// solve leaves the cycle only through Bland's rule.
func bealeLP() *Model {
	m := NewModel()
	x4 := m.AddVar(6)
	x3 := m.AddVar(-0.02)
	x2 := m.AddVar(150)
	x1 := m.AddVar(-0.75)
	m.MustConstraint([]Term{{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, LE, 0)
	m.MustConstraint([]Term{{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, LE, 0)
	m.MustConstraint([]Term{{x3, 1}}, LE, 1)
	return m
}

func TestSimplexDegenerate(t *testing.T) {
	// Beale's cycling example must terminate with optimum -0.05.
	sol := solveOK(t, bealeLP())
	if !almost(sol.Objective, -0.05) {
		t.Errorf("objective = %v, want -0.05", sol.Objective)
	}
}

func TestSimplexZeroRHSEquality(t *testing.T) {
	// Flow-conservation-style constraint with rhs 0.
	m := NewModel()
	in := m.AddVar(0)
	out := m.AddVar(1)
	m.MustConstraint([]Term{{in, 1}, {out, -1}}, EQ, 0)
	m.MustConstraint([]Term{{in, 1}}, GE, 5)
	sol := solveOK(t, m)
	if !almost(sol.Value(out), 5) {
		t.Errorf("out = %v, want 5", sol.Value(out))
	}
}

func TestSimplexMergesDuplicateTerms(t *testing.T) {
	m := NewModel()
	x := m.AddVar(1)
	// x + x >= 6 -> x >= 3.
	m.MustConstraint([]Term{{x, 1}, {x, 1}}, GE, 6)
	sol := solveOK(t, m)
	if !almost(sol.Value(x), 3) {
		t.Errorf("x = %v, want 3", sol.Value(x))
	}
}

func TestConstraintValidation(t *testing.T) {
	m := NewModel()
	x := m.AddVar(1)
	if err := m.AddConstraint([]Term{{Var(5), 1}}, LE, 1); err == nil {
		t.Error("unknown var should error")
	}
	if err := m.AddConstraint([]Term{{x, math.NaN()}}, LE, 1); err == nil {
		t.Error("NaN coefficient should error")
	}
	if err := m.AddConstraint([]Term{{x, 1}}, LE, math.Inf(1)); err == nil {
		t.Error("infinite rhs should error")
	}
	m.SetUpper(x, -1)
	if _, err := solve(m); err == nil {
		t.Error("negative upper bound should error")
	}
}

func TestRedundantConstraints(t *testing.T) {
	// Same equality twice: the second is redundant; artificial stays at
	// zero and the solve must still succeed.
	m := NewModel()
	x := m.AddVar(1)
	y := m.AddVar(1)
	m.MustConstraint([]Term{{x, 1}, {y, 1}}, EQ, 4)
	m.MustConstraint([]Term{{x, 1}, {y, 1}}, EQ, 4)
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
	rel Rel
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
			case LE:
				if dot > c.rhs+1e-7 {
					return false
				}
			case GE:
				if dot < c.rhs-1e-7 {
					return false
				}
			case EQ:
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
			rel Rel
			rhs float64
		}, k)
		for i := range cons {
			a := make([]float64, n)
			for j := range a {
				a[j] = math.Round((rng.Float64()*4-2)*4) / 4
			}
			cons[i].a = a
			cons[i].rel = Rel(rng.Intn(3))
			cons[i].rhs = math.Round((rng.Float64()*8-2)*4) / 4
		}
		wantObj, feasible := bruteForce(obj, cons, ub)

		m := NewModel()
		vars := make([]Var, n)
		for j := 0; j < n; j++ {
			vars[j] = m.AddVar(obj[j])
			m.SetUpper(vars[j], ub[j])
		}
		for i, c := range cons {
			terms := make([]Term, n)
			for j := 0; j < n; j++ {
				terms[j] = Term{vars[j], c.a[j]}
			}
			m.MustConstraint(terms, c.rel, c.rhs)
			_ = i
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
		m.MustConstraint(terms, EQ, 10)
	}
	for j := 0; j < d; j++ {
		terms := make([]Term, s)
		for i := 0; i < s; i++ {
			terms[i] = Term{x[i][j], 1}
		}
		m.MustConstraint(terms, EQ, 10)
	}
	sol := solveOK(t, m)
	// Total shipped is 200; min cost must be >= 200 * min cost ~ 200.
	if sol.Objective < 200 {
		t.Errorf("objective %v below theoretical floor", sol.Objective)
	}
}
