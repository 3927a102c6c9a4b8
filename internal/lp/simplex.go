package lp

import (
	"fmt"
	"math"
)

// Numerical tolerances for the simplex. eps classifies reduced costs and
// residuals as zero; pivotEps rejects pivots too small to divide by
// safely; warmPivotEps is the (stricter) threshold a warm-start replay
// pivot must clear — a marginal pivot there means the cached basis has
// drifted close to singular and a cold solve is safer.
const (
	eps          = 1e-9
	pivotEps     = 1e-10
	warmPivotEps = 1e-7
)

// ErrIterLimit reports that the simplex exceeded its iteration budget
// without converging (a cycling or pathological instance). Callers that
// re-solve periodically (the control loop) should treat it as transient:
// keep the previous plan and retry next tick. Test with errors.Is.
var ErrIterLimit = fmt.Errorf("lp: simplex iteration limit exceeded")

// Solve minimizes the model's objective over its constraints using a
// two-phase primal simplex with Bland's anti-cycling rule engaged after
// a degenerate stretch. Upper bounds registered with SetUpper are
// expanded into explicit constraints.
//
// Solve allocates fresh scratch per call; a re-solving control loop
// should hold a Solver and use its Solve/SolveFrom instead.
func (m *Model) Solve() (*Solution, error) {
	return NewSolver().Solve(m)
}

// tableau is the standard-form simplex tableau:
//
//	rows 0..m-1:  A | b   (b ≥ 0)
//	row  m:       phase-2 objective (original costs)
//	row  m+1:     phase-1 objective (artificial costs), dropped after phase 1
//
// Columns: n structural vars, then slack/surplus, then artificials, then
// the rhs column. Rows are stored densely (slices into the Solver's flat
// scratch) but pivots are sparsity-aware: the pivot row's nonzero column
// indices are collected once per pivot and eliminations touch only those
// columns, so a pivot costs O(cols + rows·nnz(pivot row)) instead of
// O(rows·cols). SLATE's flow LPs have ~4 nonzeros per constraint row, so
// this is the difference between quadratic and near-linear pivots until
// fill-in accumulates (and degrades gracefully to dense cost when it
// does).
type tableau struct {
	a       [][]float64
	rows    int // constraint rows
	cols    int // total columns excluding rhs
	n       int // structural variables
	basis   []int
	artBase int     // first artificial column; artificials are [artBase, cols)
	s       *Solver // owner of the scratch buffers
}

func (s *Solver) newTableau(m *Model) (*tableau, error) {
	n := len(m.vars)
	// Count rows and extra columns: explicit constraints, then upper
	// bounds expanded into LE rows (their rhs is validated ≥ 0, so they
	// never flip).
	nRows := len(m.cons)
	nSlack, nArt := 0, 0
	for _, c := range m.cons {
		rel := c.rel
		if c.rhs < 0 { // normalization flips the relation
			rel = flip(rel)
		}
		switch rel {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}
	for _, v := range m.vars {
		if !math.IsInf(v.upper, 1) {
			if v.upper < 0 {
				return nil, fmt.Errorf("lp: variable %s has negative upper bound %v", v.name, v.upper)
			}
			nRows++
			nSlack++
		}
	}
	cols := n + nSlack + nArt
	t := &tableau{
		rows:    nRows,
		n:       n,
		cols:    cols,
		artBase: n + nSlack,
		s:       s,
	}
	t.a = s.growTableau(nRows+2, cols+1)
	t.basis = s.growBasis(nRows)

	slackCol, artCol := n, t.artBase
	row := 0
	place := func(rel Rel) {
		switch rel {
		case LE:
			t.a[row][slackCol] = 1
			t.basis[row] = slackCol
			slackCol++
		case GE:
			t.a[row][slackCol] = -1
			slackCol++
			t.a[row][artCol] = 1
			t.basis[row] = artCol
			artCol++
		case EQ:
			t.a[row][artCol] = 1
			t.basis[row] = artCol
			artCol++
		}
		row++
	}
	for _, c := range m.cons {
		sign := 1.0
		rel := c.rel
		if c.rhs < 0 {
			sign = -1
			rel = flip(rel)
		}
		for _, term := range c.terms {
			t.a[row][term.Var] = sign * term.Coef
		}
		t.a[row][cols] = sign * c.rhs
		place(rel)
	}
	for j, v := range m.vars {
		if !math.IsInf(v.upper, 1) {
			t.a[row][j] = 1
			t.a[row][cols] = v.upper
			place(LE)
		}
	}
	// Phase-2 objective row: original costs (minimization).
	for j, v := range m.vars {
		t.a[nRows][j] = v.obj
	}
	// Phase-1 objective row: sum of artificials.
	for j := t.artBase; j < cols; j++ {
		t.a[nRows+1][j] = 1
	}
	return t, nil
}

func flip(r Rel) Rel {
	switch r {
	case LE:
		return GE
	case GE:
		return LE
	default:
		return EQ
	}
}

// solve runs both phases from the all-slack/artificial start.
func (t *tableau) solve(m *Model) (*Solution, error) {
	objRow1 := t.rows + 1 // phase-1 row

	// Price out the initial basis from the phase-1 row (artificials have
	// cost 1 and are basic).
	for i := 0; i < t.rows; i++ {
		if t.basis[i] >= t.artBase {
			addRow(t.a[objRow1], t.a[i], -1)
		}
	}
	if t.hasArtificials() {
		if err := t.iterate(objRow1, true); err != nil {
			return nil, err
		}
		if t.a[objRow1][t.cols] < -eps {
			// Phase-1 optimum > 0 (the row stores the negated objective).
			return &Solution{Status: Infeasible}, nil
		}
		t.driveOutArtificials()
	}
	return t.finishPhase2(m)
}

// finishPhase2 prices out the phase-2 row for the current (feasible)
// basis, runs phase-2 pivots, and extracts the solution.
func (t *tableau) finishPhase2(m *Model) (*Solution, error) {
	objRow2 := t.rows
	for i := 0; i < t.rows; i++ {
		b := t.basis[i]
		if c := t.a[objRow2][b]; c != 0 { //slate:nolint floatcmp -- pivot elimination skips exact zeros only
			addRow(t.a[objRow2], t.a[i], -c)
		}
	}
	if err := t.iterate(objRow2, false); err != nil {
		if err == errUnbounded {
			return &Solution{Status: Unbounded}, nil
		}
		return nil, err
	}
	sol := &Solution{
		Status: Optimal,
		X:      make([]float64, t.n),
		Basis:  append([]int(nil), t.basis...),
	}
	for i, b := range t.basis {
		if b < t.n {
			sol.X[b] = t.a[i][t.cols]
		}
	}
	var obj float64
	for j, v := range m.vars {
		obj += v.obj * sol.X[j]
	}
	sol.Objective = obj
	return sol, nil
}

// warmStart tries to install a previously optimal basis by pivoting each
// row onto its assigned column. It reports false — leaving the caller to
// re-solve cold — when the basis does not fit this tableau's shape, the
// basis matrix is (near-)singular, or the basis is not primal-feasible
// for the current right-hand side. On success the tableau is at a
// primal-feasible vertex and phase 1 can be skipped entirely.
func (t *tableau) warmStart(basis []int) bool {
	if len(basis) != t.rows {
		return false
	}
	seen := t.s.growSeen(t.cols)
	for _, b := range basis {
		if b < 0 || b >= t.cols || seen[b] {
			return false
		}
		seen[b] = true
	}
	// Install the basis as a SET, not under its recorded row pairing:
	// after pivoting some rows, the recorded pairing's diagonal entry can
	// be exactly zero even though the basis matrix is nonsingular (only
	// the remaining block's determinant is guaranteed, not its diagonal),
	// so pairing-faithful replay stalls on real bases. The pairing is
	// irrelevant anyway — the basis set determines the vertex.
	//
	// Rows whose initial slack/artificial is itself in the target set
	// keep it: their columns are unit vectors and stay that way as long
	// as those rows are never used as pivot rows. Each remaining target
	// column is then installed Gaussian-elimination style, pivoting on
	// the largest-magnitude entry among remaining rows; for a
	// nonsingular basis the remaining block has no zero column, so only
	// a (near-)singular basis fails the warmPivotEps cutoff and falls
	// back to a cold solve. seen[col] doubles as "column still to
	// install": consumed columns are cleared.
	done := t.s.growDone(t.rows)
	for i := 0; i < t.rows; i++ {
		if seen[t.basis[i]] {
			seen[t.basis[i]] = false
			done[i] = true
		}
	}
	for _, col := range basis {
		if !seen[col] {
			continue // kept as an initial basic column above
		}
		seen[col] = false
		best := -1
		bestAbs := warmPivotEps
		for i := 0; i < t.rows; i++ {
			if done[i] {
				continue
			}
			if v := math.Abs(t.a[i][col]); v > bestAbs {
				best = i
				bestAbs = v
			}
		}
		if best < 0 {
			return false
		}
		t.pivot(best, col)
		done[best] = true
	}
	for i := 0; i < t.rows; i++ {
		rhs := t.a[i][t.cols]
		if rhs < -eps {
			return false // new rhs left the old basis infeasible
		}
		if rhs < 0 {
			t.a[i][t.cols] = 0 // clamp roundoff negatives
		}
	}
	return true
}

var errUnbounded = fmt.Errorf("lp: unbounded")

func (t *tableau) hasArtificials() bool { return t.artBase < t.cols }

// iterate runs primal simplex pivots until the objective row objRow has
// no negative reduced costs. phase1 restricts nothing extra here (the
// artificial columns participate); in phase 2, artificial columns are
// barred from entering.
// maxIterScale sizes the pivot budget relative to the tableau; tests
// shrink it to exercise the ErrIterLimit path.
var maxIterScale = 200

// SetIterBudgetScale overrides the pivot-budget multiplier (default 200)
// and returns a func restoring the previous value. It exists so tests in
// other packages can provoke ErrIterLimit deterministically; production
// code must not call it.
func SetIterBudgetScale(n int) (restore func()) {
	old := maxIterScale
	maxIterScale = n
	return func() { maxIterScale = old }
}

func (t *tableau) iterate(objRow int, phase1 bool) error {
	maxIter := maxIterScale * (t.rows + t.cols + 10)
	degenerate := 0
	bland := false
	for iter := 0; ; iter++ {
		if iter > maxIter {
			return fmt.Errorf("%w after %d pivots (%d rows, %d cols)", ErrIterLimit, maxIter, t.rows, t.cols)
		}
		enter := t.chooseEntering(objRow, phase1, bland)
		if enter < 0 {
			return nil // optimal for this phase
		}
		leave := t.chooseLeaving(enter, bland)
		if leave < 0 {
			return errUnbounded
		}
		if t.a[leave][t.cols] < eps {
			degenerate++
			if degenerate > 2*(t.rows+1) {
				bland = true // anti-cycling
			}
		} else {
			degenerate = 0
			bland = false
		}
		t.pivot(leave, enter)
	}
}

func (t *tableau) chooseEntering(objRow int, phase1, bland bool) int {
	best, bestVal := -1, -eps
	row := t.a[objRow]
	for j := 0; j < t.cols; j++ {
		if !phase1 && j >= t.artBase {
			continue // artificials may not re-enter in phase 2
		}
		c := row[j]
		if c < -eps {
			if bland {
				return j // first improving column (Bland's rule)
			}
			if c < bestVal {
				bestVal = c
				best = j
			}
		}
	}
	return best
}

func (t *tableau) chooseLeaving(enter int, bland bool) int {
	best := -1
	bestRatio := math.Inf(1)
	for i := 0; i < t.rows; i++ {
		pivot := t.a[i][enter]
		if pivot <= pivotEps {
			continue
		}
		ratio := t.a[i][t.cols] / pivot
		if ratio < bestRatio-eps ||
			(math.Abs(ratio-bestRatio) <= eps && best >= 0 && tieBreak(t.basis[i], t.basis[best], bland)) {
			bestRatio = ratio
			best = i
		}
	}
	return best
}

// tieBreak prefers candidate over incumbent among equal min-ratio rows.
// Under Bland's rule, pick the smallest basis index (guarantees
// termination); otherwise prefer kicking artificials out first.
func tieBreak(candidate, incumbent int, bland bool) bool {
	if bland {
		return candidate < incumbent
	}
	return candidate > incumbent
}

// pivot makes column col basic in row. The pivot row's nonzero columns
// are collected once; each elimination then touches only those columns.
// Arithmetic is identical to the dense version (skipped entries would
// only ever add f·0), so solves are bit-for-bit reproducible regardless
// of sparsity.
func (t *tableau) pivot(row, col int) {
	pr := t.a[row]
	inv := 1 / pr[col]
	nz := t.s.nz[:0]
	for j, v := range pr {
		if v != 0 { //slate:nolint floatcmp -- sparsity: exact zeros carry no pivot contribution
			pr[j] = v * inv
			nz = append(nz, j)
		}
	}
	t.s.nz = nz
	for i := range t.a {
		if i == row {
			continue
		}
		ri := t.a[i]
		c := ri[col]
		if c == 0 { //slate:nolint floatcmp -- pivot elimination skips exact zeros only
			continue
		}
		for _, j := range nz {
			ri[j] -= c * pr[j]
		}
		ri[col] = 0 // cancel roundoff exactly
	}
	t.basis[row] = col
}

// driveOutArtificials pivots any artificial still basic at value ~0 out
// of the basis; if a row has no eligible pivot it is redundant and the
// artificial stays at zero harmlessly (it cannot re-enter in phase 2).
func (t *tableau) driveOutArtificials() {
	for i := 0; i < t.rows; i++ {
		if t.basis[i] < t.artBase {
			continue
		}
		for j := 0; j < t.artBase; j++ {
			if math.Abs(t.a[i][j]) > pivotEps {
				t.pivot(i, j)
				break
			}
		}
	}
}

func addRow(dst, src []float64, f float64) {
	for j, v := range src {
		if v != 0 { //slate:nolint floatcmp -- exact zeros contribute nothing
			dst[j] += f * v
		}
	}
}
