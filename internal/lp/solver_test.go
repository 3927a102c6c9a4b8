package lp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// randomFeasibleLP builds a bounded LP that is feasible by construction:
// a random point x0 inside the box is sampled first and every
// constraint's rhs is derived from A·x0 so x0 satisfies it, an
// inequality written in standard form by constrain. Continuous
// (unrounded) coefficients make the optimum unique almost surely, so
// differential tests may compare X, not just the objective.
func randomFeasibleLP(rng *rand.Rand) *Model {
	n := 3 + rng.Intn(10) // 3..12 vars
	k := 2 + rng.Intn(9)  // 2..10 constraints
	m := NewModel()
	vars := make([]Var, n)
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		ub := 2 + 10*rng.Float64()
		vars[j] = m.AddVar(rng.Float64()*4 - 2)
		mustUpper(m, vars[j], ub)
		x0[j] = ub * rng.Float64()
	}
	for i := 0; i < k; i++ {
		var terms []Term
		dot := 0.0
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.5 {
				continue
			}
			c := rng.Float64()*6 - 3
			terms = append(terms, Term{vars[j], c})
			dot += c * x0[j]
		}
		if len(terms) == 0 {
			continue
		}
		r, rhs := rel(rng.Intn(3)), dot
		switch r {
		case le:
			rhs += rng.Float64() * 2
		case ge:
			rhs -= rng.Float64() * 2
		}
		constrain(m, terms, r, rhs)
	}
	return m
}

// perturbRHS drifts every constraint's rhs a little, never below 0,
// mimicking demand drift between control ticks. The result may or may
// not stay feasible; warm and cold solves must agree either way.
func perturbRHS(t *testing.T, m *Model, rng *rand.Rand, scale float64) {
	t.Helper()
	for i := 0; i < m.NumConstraints(); i++ {
		if err := m.SetRHS(i, max(0, m.cons[i].rhs+scale*(rng.Float64()*2-1))); err != nil {
			t.Fatalf("SetRHS: %v", err)
		}
	}
}

func sameSolution(t *testing.T, trial int, warm, cold *Solution) {
	t.Helper()
	if warm.Status != cold.Status {
		t.Fatalf("trial %d: warm status %v, cold status %v", trial, warm.Status, cold.Status)
	}
	if cold.Status != Optimal {
		return
	}
	if !almost(warm.Objective, cold.Objective) {
		t.Fatalf("trial %d: warm objective %v, cold %v", trial, warm.Objective, cold.Objective)
	}
	for j := range cold.X {
		if !almost(warm.X[j], cold.X[j]) {
			t.Fatalf("trial %d: X[%d]: warm %v, cold %v", trial, j, warm.X[j], cold.X[j])
		}
	}
}

// TestWarmMatchesColdRandom is the core differential test: across many
// seeded random LPs, a warm start from the pre-perturbation basis must
// land on the same optimum (status, objective, X) as a cold solve of the
// perturbed problem.
func TestWarmMatchesColdRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	warmSolver := newSolver()
	for trial := 0; trial < 200; trial++ {
		m := randomFeasibleLP(rng)
		base, err := solve(m)
		if err != nil {
			t.Fatalf("trial %d: base solve: %v", trial, err)
		}
		if base.Status != Optimal {
			t.Fatalf("trial %d: base status %v, want optimal (feasible by construction)", trial, base.Status)
		}
		// Small drift should usually keep the basis feasible (true warm
		// path); large drift exercises the fallback. Alternate both.
		scale := 0.05
		if trial%3 == 0 {
			scale = 5
		}
		perturbRHS(t, m, rng, scale)
		warm, err := warmSolver.solve(m, base.Basis)
		if err != nil {
			t.Fatalf("trial %d: warm solve: %v", trial, err)
		}
		cold, err := solve(m)
		if err != nil {
			t.Fatalf("trial %d: cold solve: %v", trial, err)
		}
		sameSolution(t, trial, warm, cold)
	}
}

// TestWarmSteadyState re-solves the unchanged problem from its own
// optimal basis: phase 1 must be skipped and the same optimum returned.
func TestWarmSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		m := randomFeasibleLP(rng)
		s := newSolver()
		base, err := s.solve(m, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		warm, err := s.solve(m, base.Basis)
		if err != nil {
			t.Fatalf("trial %d: warm: %v", trial, err)
		}
		sameSolution(t, trial, warm, base)
	}
}

// TestSolverReuseNoLeak interleaves solves of differently-shaped models
// through one Solver and demands bit-identical results to fresh-solver
// solves: any scratch not fully reinitialized would surface here.
func TestSolverReuseNoLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	models := make([]*Model, 6)
	want := make([]*Solution, len(models))
	for i := range models {
		models[i] = randomFeasibleLP(rng)
		sol, err := solve(models[i])
		if err != nil {
			t.Fatalf("model %d: %v", i, err)
		}
		want[i] = sol
	}
	shared := newSolver()
	for pass := 0; pass < 3; pass++ {
		for i, m := range models {
			got, err := shared.solve(m, nil)
			if err != nil {
				t.Fatalf("pass %d model %d: %v", pass, i, err)
			}
			if got.Status != want[i].Status || got.Objective != want[i].Objective { //slate:nolint floatcmp -- reuse must be bit-identical
				t.Fatalf("pass %d model %d: got status %v obj %v, want %v %v",
					pass, i, got.Status, got.Objective, want[i].Status, want[i].Objective)
			}
			for j := range want[i].X {
				if got.X[j] != want[i].X[j] { //slate:nolint floatcmp -- reuse must be bit-identical
					t.Fatalf("pass %d model %d: X[%d] = %v, want %v", pass, i, j, got.X[j], want[i].X[j])
				}
			}
		}
	}
}

// TestSolveFromDegenerateBases feeds Solve bases that cannot be
// installed — nil, wrong length, duplicates, out-of-range columns — and
// expects a silent, correct cold fallback.
func TestSolveFromDegenerateBases(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m := randomFeasibleLP(rng)
	cold, err := solve(m)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	bad := [][]int{
		nil,
		{},
		{0},
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		{-1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19},
		{1 << 20, 1, 2, 3},
	}
	for i, basis := range bad {
		got, err := newSolver().solve(m, basis)
		if err != nil {
			t.Fatalf("basis %d: %v", i, err)
		}
		sameSolution(t, i, got, cold)
	}
}

// TestIterLimitTyped shrinks the pivot budget until the solver cannot
// converge and verifies the failure is reported as ErrIterLimit, so
// control loops can distinguish "retry next tick" from a broken model.
func TestIterLimitTyped(t *testing.T) {
	old := maxIterScale
	maxIterScale = 0
	defer func() { maxIterScale = old }()

	m := NewModel()
	x := m.AddVar(-1)
	y := m.AddVar(-1)
	mustUpper(m, x, 10)
	mustUpper(m, y, 10)
	constrain(m, []Term{{x, 1}, {y, 1}}, le, 15)
	_, err := solve(m)
	if err == nil {
		t.Fatal("expected iteration-limit error with zero budget")
	}
	if !errors.Is(err, ErrIterLimit) {
		t.Fatalf("error %v is not ErrIterLimit", err)
	}
}

// TestWarmAfterIterLimitFallsBack verifies that when only the warm path
// blows the budget the caller still gets a typed error rather than a
// wrong answer (both paths share the budget here, so the cold retry
// fails too — the point is errors.Is compatibility end to end).
func TestWarmAfterIterLimitFallsBack(t *testing.T) {
	old := maxIterScale
	maxIterScale = 0
	defer func() { maxIterScale = old }()

	rng := rand.New(rand.NewSource(43))
	m := randomFeasibleLP(rng)
	_, err := newSolver().solve(m, []int{0})
	if err != nil && !errors.Is(err, ErrIterLimit) {
		t.Fatalf("error %v is not ErrIterLimit", err)
	}
}

// TestSetCoefUpdatesModel verifies SetCoef edits reach the solver and
// keep terms sorted for later binary searches.
func TestSetCoefUpdatesModel(t *testing.T) {
	m := NewModel()
	x := m.AddVar(1)
	y := m.AddVar(2)
	mustUpper(m, x, 100)
	mustUpper(m, y, 100)
	constrain(m, []Term{{x, 1}}, ge, 10)

	// minimize x+2y s.t. x >= 10: x=10, y=0.
	sol := solveOK(t, m)
	if !almost(sol.Objective, 10) {
		t.Fatalf("objective %v, want 10", sol.Objective)
	}
	// Insert y into the constraint: x + 4y >= 10 → still x=10 cheapest...
	if err := m.SetCoef(0, y, 4); err != nil {
		t.Fatalf("SetCoef: %v", err)
	}
	// ...then make x expensive so the solver must route through y.
	m.SetObj(x, 100)
	sol = solveOK(t, m)
	if !almost(sol.Objective, 5) { // y = 2.5 at cost 2
		t.Fatalf("objective %v, want 5 (y=2.5)", sol.Objective)
	}
	// Zero an existing coefficient and an absent one.
	if err := m.SetCoef(0, x, 0); err != nil {
		t.Fatalf("SetCoef zero: %v", err)
	}
	sol = solveOK(t, m)
	if !almost(sol.Objective, 5) {
		t.Fatalf("objective %v, want 5 after zeroing x", sol.Objective)
	}
	if err := m.SetCoef(0, x, 0); err != nil {
		t.Fatalf("SetCoef absent zero: %v", err)
	}
	if err := m.SetCoef(7, x, 1); err == nil {
		t.Fatal("expected out-of-range constraint error")
	}
	if err := m.SetCoef(0, Var(9), 1); err == nil {
		t.Fatal("expected unknown variable error")
	}
	if err := m.SetRHS(9, 1); err == nil {
		t.Fatal("expected out-of-range SetRHS error")
	}
	if err := m.SetRHS(0, math.NaN()); err == nil {
		t.Fatal("expected non-finite SetRHS error")
	}
}

// modelState is a deep copy of what a Model holds.
type modelState struct {
	vars  []variable
	cons  []constraint
	edits uint64
}

func stateOf(m *Model) modelState {
	st := modelState{vars: slices.Clone(m.vars), edits: m.edits}
	for _, c := range m.cons {
		st.cons = append(st.cons, constraint{terms: slices.Clone(c.terms), rhs: c.rhs})
	}
	return st
}

// checkRefused makes the edit refuse on a routing LP whose Solver holds
// the tableau of a warm optimum: the edit must return an *Error about row
// and col, leave the model's rows, bounds and edit count as they were,
// and leave the kept tableau to the next solve from the same basis.
func checkRefused(t *testing.T, edit func(r *routingLP) (row, col int, err error)) {
	t.Helper()
	r := randomRoutingLP(rand.New(rand.NewSource(97)))
	s := newSolver()
	sol, err := s.solve(r.m, nil)
	if err == nil {
		sol, err = s.solve(r.m, sol.Basis) // a warm solve keeps its tableau
	}
	if err != nil || sol.Status != Optimal || !sol.Warm {
		t.Fatalf("warm solve: %v, %+v", err, sol)
	}
	before := stateOf(r.m)
	row, col, err := edit(r)
	var lerr *Error
	if !errors.As(err, &lerr) || lerr.Row != row || lerr.Col != col {
		t.Fatalf("edit returned %v, want an *Error at row %d, column %d", err, row, col)
	}
	if !reflect.DeepEqual(stateOf(r.m), before) {
		t.Fatal("the refused edit changed the model")
	}
	again, err := s.solve(r.m, sol.Basis)
	if err != nil || again.Status != Optimal || !again.Kept {
		t.Fatalf("solve after the refused edit: %v, %+v; want it to resume from the kept tableau", err, again)
	}
}

// TestAddConstraintRefusesNegativeRHS: a row whose right-hand side is
// below 0 is not the standard form; AddConstraint refuses it, naming the
// row it would have added.
func TestAddConstraintRefusesNegativeRHS(t *testing.T) {
	checkRefused(t, func(r *routingLP) (int, int, error) {
		row := r.m.NumConstraints()
		return row, -1, r.m.AddConstraint([]Term{{r.segs[0], 1}}, -0.5)
	})
}

// TestSetRHSRefusesNegativeRHS: a demand moved below 0 is refused, and
// the model keeps the demand it had.
func TestSetRHSRefusesNegativeRHS(t *testing.T) {
	checkRefused(t, func(r *routingLP) (int, int, error) {
		con := r.demands[len(r.demands)-1]
		return con, -1, r.m.SetRHS(con, -1e-12)
	})
}

// TestSetUpperRefusesNegativeOrNaN: a bound below 0 or NaN is refused,
// and the variable keeps the bound it had.
func TestSetUpperRefusesNegativeOrNaN(t *testing.T) {
	for _, hi := range []float64{-1, math.Inf(-1), math.NaN()} {
		t.Run(fmt.Sprint(hi), func(t *testing.T) {
			checkRefused(t, func(r *routingLP) (int, int, error) {
				v := r.segs[1]
				return -1, int(v), r.m.SetUpper(v, hi)
			})
		})
	}
}
