package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// FuzzWarmRepair holds a warm start to a cold solve. The input names a
// random LP — a bounded one feasible by construction, or one of the
// routing shape — its optimal basis, and a move of the right-hand side,
// of the objective or of both. SolveWith from the old basis (installed
// and left feasible, repaired with dual pivots, or abandoned for a cold
// start) must reach the cold solve's status, its objective within 1e-9
// relative, and a point that satisfies the moved model. The checked-in
// corpus takes each of those paths, and holds the case that sent a warm
// start to phase 2 with a basic artificial off zero.
func FuzzWarmRepair(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, routing bool, rhsMove, objMove float64) {
		// Demand at most doubles, a random LP's right-hand side moves by a
		// few times its spread, a cost by at most its size: far enough to
		// leave the old basis infeasible, not so far that a cold solve
		// stops deciding in a few hundred pivots.
		if !(math.Abs(rhsMove) <= 10 && math.Abs(objMove) <= 1) || routing && math.Abs(rhsMove) > 1 {
			t.Skip("move out of range")
		}
		rng := rand.New(rand.NewSource(seed))
		var m *Model
		var demands []int
		if routing {
			r := randomRoutingLP(rng)
			m, demands = r.m, r.demands
		} else {
			m = randomFeasibleLP(rng)
		}
		s := NewSolver()
		base, err := s.SolveWith(nil, m, nil)
		if err != nil || base.Status != Optimal {
			t.Fatalf("base solve: %v, %+v", err, base)
		}
		if routing {
			// Demand moves by a factor, never below zero: the control loop
			// refuses negative demand before it reaches the LP.
			for _, con := range demands {
				if err := m.SetRHS(con, m.cons[con].rhs*max(0, 1+rhsMove*(2*rng.Float64()-1))); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for i := range m.cons {
				if err := m.SetRHS(i, m.cons[i].rhs+rhsMove*(2*rng.Float64()-1)); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Costs move as a refitted profile moves its segments' slopes: by a
		// factor, keeping their sign (exactly 1 when objMove is 0).
		for j := range m.vars {
			m.SetObj(Var(j), m.vars[j].obj*(1+objMove*(2*rng.Float64()-1)))
		}
		warm, err := s.SolveWith(nil, m, base.Basis)
		cold, coldErr := solve(m)
		if err != nil || coldErr != nil {
			// SolveWith gives up only where a cold start does too.
			if !errors.Is(err, ErrIterLimit) || !errors.Is(coldErr, ErrIterLimit) {
				t.Fatalf("warm solve: %v; cold solve: %v", err, coldErr)
			}
			return
		}
		if warm.Status != cold.Status {
			t.Fatalf("warm status %v (warm %v, %d dual pivots), cold %v", warm.Status, warm.Warm, warm.DualPivots, cold.Status)
		}
		if cold.Status != Optimal {
			return
		}
		if d := math.Abs(warm.Objective - cold.Objective); d > 1e-9*math.Max(1, math.Abs(cold.Objective)) {
			t.Fatalf("warm objective %v (warm %v, %d dual pivots), cold %v", warm.Objective, warm.Warm, warm.DualPivots, cold.Objective)
		}
		if err := m.CheckFeasible(warm.X, 1e-6); err != nil {
			t.Fatalf("warm solution (warm %v, %d dual pivots): %v", warm.Warm, warm.DualPivots, err)
		}
	})
}
