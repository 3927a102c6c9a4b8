package lp

import (
	"math"
	"strings"
	"testing"
)

// evalModel builds min x0 + 2·x1 s.t. x0 + x1 = 10, x0 ≤ 6, x1 ≤ 8.
func evalModel(t *testing.T) (*Model, Var, Var) {
	t.Helper()
	m := NewModel()
	a := m.AddVar("a", 1)
	b := m.AddVar("b", 2)
	m.SetUpper(a, 6)
	m.SetUpper(b, 8)
	m.MustConstraint("sum", []Term{{Var: a, Coef: 1}, {Var: b, Coef: 1}}, EQ, 10)
	return m, a, b
}

func TestEvalObjective(t *testing.T) {
	m, _, _ := evalModel(t)
	if got := m.EvalObjective([]float64{6, 4}); got != 14 { //slate:nolint floatcmp -- small-integer arithmetic is exact in float64
		t.Fatalf("EvalObjective = %v, want 14", got)
	}
	// Extra trailing entries are ignored.
	if got := m.EvalObjective([]float64{6, 4, 99}); got != 14 { //slate:nolint floatcmp -- small-integer arithmetic is exact in float64
		t.Fatalf("EvalObjective with extra entries = %v, want 14", got)
	}
}

func TestEvalObjectiveMatchesSolver(t *testing.T) {
	m, _, _ := evalModel(t)
	sol, err := solve(m)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if got := m.EvalObjective(sol.X); math.Abs(got-sol.Objective) > 1e-9 {
		t.Fatalf("EvalObjective(optimal X) = %v, solver objective %v", got, sol.Objective)
	}
}

func TestCheckFeasible(t *testing.T) {
	m, _, _ := evalModel(t)

	cases := []struct {
		name    string
		x       []float64
		wantErr string // "" means feasible
	}{
		{"optimal-vertex", []float64{6, 4}, ""},
		{"interior-split", []float64{5, 5}, ""},
		{"tiny-residual", []float64{6, 4 + 1e-9}, ""},
		{"short-vector", []float64{6}, "2 variables"},
		{"negative", []float64{-1, 11}, "x >= 0"},
		{"over-upper", []float64{7, 3}, "upper bound"},
		{"broken-sum", []float64{3, 3}, "constraint sum"},
		{"nan", []float64{math.NaN(), 4}, "non-finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := m.CheckFeasible(tc.x, 1e-6)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("CheckFeasible = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("CheckFeasible = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestCheckFeasibleRelations(t *testing.T) {
	m := NewModel()
	a := m.AddVar("a", 0)
	m.MustConstraint("le", []Term{{Var: a, Coef: 1}}, LE, 5)
	m.MustConstraint("ge", []Term{{Var: a, Coef: 1}}, GE, 2)
	if err := m.CheckFeasible([]float64{3}, 1e-9); err != nil {
		t.Fatalf("3 should satisfy 2 <= a <= 5: %v", err)
	}
	if err := m.CheckFeasible([]float64{6}, 1e-9); err == nil {
		t.Fatal("6 should violate a <= 5")
	}
	if err := m.CheckFeasible([]float64{1}, 1e-9); err == nil {
		t.Fatal("1 should violate a >= 2")
	}
}

// TestCheckFeasibleRelativeTolerance: a badly scaled row (coefficients
// ~1e9) must not reject a solution whose absolute residual is large but
// relative residual is tiny.
func TestCheckFeasibleRelativeTolerance(t *testing.T) {
	m := NewModel()
	a := m.AddVar("a", 0)
	m.MustConstraint("big", []Term{{Var: a, Coef: 1e9}}, EQ, 1e9)
	// 1 + 1e-9 → residual 1.0 in absolute terms, 1e-9 relative.
	if err := m.CheckFeasible([]float64{1 + 1e-9}, 1e-6); err != nil {
		t.Fatalf("relative tolerance should accept: %v", err)
	}
	if err := m.CheckFeasible([]float64{1.01}, 1e-6); err == nil {
		t.Fatal("1% violation on the big row should be rejected")
	}
}

// TestCheckFeasibleSolverSolutions: every optimal solve of a random-ish
// family of transportation problems passes its own feasibility check.
func TestCheckFeasibleSolverSolutions(t *testing.T) {
	for n := 2; n <= 6; n++ {
		m := NewModel()
		vars := make([][]Var, n)
		for i := range vars {
			vars[i] = make([]Var, n)
			for j := range vars[i] {
				vars[i][j] = m.AddVar("x", float64((i*7+j*13)%10+1))
			}
		}
		for i := 0; i < n; i++ {
			terms := make([]Term, n)
			for j := 0; j < n; j++ {
				terms[j] = Term{Var: vars[i][j], Coef: 1}
			}
			m.MustConstraint("s", terms, EQ, 10)
		}
		for j := 0; j < n; j++ {
			terms := make([]Term, n)
			for i := 0; i < n; i++ {
				terms[i] = Term{Var: vars[i][j], Coef: 1}
			}
			m.MustConstraint("d", terms, EQ, 10)
		}
		sol, err := solve(m)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			t.Fatalf("n=%d: status %v", n, sol.Status)
		}
		if err := m.CheckFeasible(sol.X, 1e-6); err != nil {
			t.Fatalf("n=%d: optimal solution rejected: %v", n, err)
		}
		if got := m.EvalObjective(sol.X); math.Abs(got-sol.Objective) > 1e-6*(1+math.Abs(sol.Objective)) {
			t.Fatalf("n=%d: EvalObjective %v vs solver %v", n, got, sol.Objective)
		}
	}
}
