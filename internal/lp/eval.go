package lp

import (
	"fmt"
	"math"
)

// EvalObjective returns the objective value c·x of an externally
// produced assignment, indexed by Var. It is the authoritative score for
// solutions that did not come out of the simplex — e.g. a routing table
// proposed by the local-search optimizer — so that candidates from
// different solvers are compared under the exact same objective. x must
// have at least NumVars entries; extra entries are ignored.
func (m *Model) EvalObjective(x []float64) float64 {
	var obj float64
	for i := range m.vars {
		if c := m.vars[i].obj; c != 0 { //slate:nolint floatcmp -- sparsity: skip structurally-zero objective entries
			obj += c * x[i]
		}
	}
	return obj
}

// CheckFeasible verifies that x satisfies every constraint, variable
// bound, and the x ≥ 0 domain of the model, within a relative tolerance:
// a row residual |Σ a·x − rhs| is accepted up to tol·(1 + Σ|a·x|), and a
// bound violation up to tol·(1 + |bound|), so well-scaled and
// badly-scaled rows are judged alike. tol ≤ 0 uses 1e-6. It returns nil
// when feasible and otherwise an *Error naming the first violated row or
// bound.
//
// This is the gate an external solver's solution must pass before the
// control plane will publish it: a locally-searched routing table that
// loses flow or overfills a PWL capacity segment fails here and the
// caller falls back to the simplex.
func (m *Model) CheckFeasible(x []float64, tol float64) error {
	if tol <= 0 {
		tol = 1e-6
	}
	if len(x) < len(m.vars) {
		return fmt.Errorf("lp: assignment has %d values for %d variables", len(x), len(m.vars))
	}
	for i := range m.vars {
		v := x[i]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errorAt(-1, i, "lp: variable %[2]s has non-finite value %[3]v", v)
		}
		if v < -tol {
			return errorAt(-1, i, "lp: variable %[2]s = %[3]v violates x >= 0", v)
		}
		if hi := m.vars[i].upper; v > hi+tol*(1+math.Abs(hi)) {
			return errorAt(-1, i, "lp: variable %[2]s = %[3]v exceeds upper bound %[4]v", v, hi)
		}
	}
	for ci := range m.cons {
		con := &m.cons[ci]
		var sum, scale float64
		for _, t := range con.terms {
			p := t.Coef * x[t.Var]
			sum += p
			scale += math.Abs(p)
		}
		if math.Abs(sum-con.rhs) > tol*(1+scale) {
			return errorAt(ci, -1, "lp: constraint %[1]s violated: %[3]v != %[4]v", sum, con.rhs)
		}
	}
	return nil
}
