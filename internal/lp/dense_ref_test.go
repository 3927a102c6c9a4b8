package lp

import (
	"errors"
	"fmt"
	"math"
)

// The dense reference: the solver as it stood at 4f7cfa2, before the
// tableau went sparse, kept verbatim (types renamed, a pivot trace added)
// for TestSparseMatchesDense to hold the live one against. It shares the
// tolerances, flip, tieBreak, errUnbounded and the pivot budget with the
// live code; everything that touches storage is its own.

// denseSolver owns the dense tableau's scratch: one flat rows × columns
// array, cleared at the start of every solve.
type denseSolver struct {
	flat  []float64   // tableau backing array
	rowp  [][]float64 // row views into flat
	basis []int
	seen  []bool // warm-start basis validation scratch (per column)
	done  []bool // warm-start row-installed scratch (per row)
	nz    []int  // pivot-row nonzero column indices scratch

	trace func(row, col int) // records the pivot sequence
}

// newDenseSolver returns a denseSolver with empty scratch.
func newDenseSolver() *denseSolver { return &denseSolver{} }

// Solve minimizes the model from a cold start (phase 1 to find a
// feasible vertex, then phase 2). The returned Solution records the
// optimal basis, which a later call can hand to SolveFrom to warm-start
// a nearby problem.
func (s *denseSolver) Solve(m *Model) (*Solution, error) {
	t, err := s.newTableau(m)
	if err != nil {
		return nil, err
	}
	return t.solve(m)
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
func (s *denseSolver) SolveFrom(m *Model, basis []int) (*Solution, error) {
	if len(basis) == 0 {
		return s.Solve(m)
	}
	t, err := s.newTableau(m)
	if err != nil {
		return nil, err
	}
	if t.warmStart(basis) {
		sol, err := t.finishPhase2(m)
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
	t, err = s.newTableau(m)
	if err != nil {
		return nil, err
	}
	return t.solve(m)
}

// growTableau returns rows zeroed row views of width elements each,
// backed by the solver's flat scratch.
func (s *denseSolver) growTableau(rows, width int) [][]float64 {
	need := rows * width
	if cap(s.flat) < need {
		s.flat = make([]float64, need)
	} else {
		s.flat = s.flat[:need]
		clear(s.flat)
	}
	if cap(s.rowp) < rows {
		s.rowp = make([][]float64, rows)
	}
	s.rowp = s.rowp[:rows]
	for i := range s.rowp {
		s.rowp[i] = s.flat[i*width : (i+1)*width : (i+1)*width]
	}
	if cap(s.nz) < width {
		s.nz = make([]int, 0, width)
	}
	return s.rowp
}

// growBasis returns a basis slice of length rows; every entry is
// assigned during tableau construction, so no clearing is needed.
func (s *denseSolver) growBasis(rows int) []int {
	if cap(s.basis) < rows {
		s.basis = make([]int, rows)
	}
	s.basis = s.basis[:rows]
	return s.basis
}

// growSeen returns a zeroed bool slice of length cols.
func (s *denseSolver) growSeen(cols int) []bool {
	if cap(s.seen) < cols {
		s.seen = make([]bool, cols)
	} else {
		s.seen = s.seen[:cols]
		clear(s.seen)
	}
	return s.seen
}

// growDone returns a zeroed bool slice of length rows.
func (s *denseSolver) growDone(rows int) []bool {
	if cap(s.done) < rows {
		s.done = make([]bool, rows)
	} else {
		s.done = s.done[:rows]
		clear(s.done)
	}
	return s.done
}

// denseTableau is the standard-form simplex tableau:
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
type denseTableau struct {
	a       [][]float64
	rows    int // constraint rows
	cols    int // total columns excluding rhs
	n       int // structural variables
	basis   []int
	artBase int          // first artificial column; artificials are [artBase, cols)
	s       *denseSolver // owner of the scratch buffers
}

func (s *denseSolver) newTableau(m *Model) (*denseTableau, error) {
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
	t := &denseTableau{
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

// solve runs both phases from the all-slack/artificial start.
func (t *denseTableau) solve(m *Model) (*Solution, error) {
	objRow1 := t.rows + 1 // phase-1 row

	// Price out the initial basis from the phase-1 row (artificials have
	// cost 1 and are basic).
	for i := 0; i < t.rows; i++ {
		if t.basis[i] >= t.artBase {
			denseAddRow(t.a[objRow1], t.a[i], -1)
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
func (t *denseTableau) finishPhase2(m *Model) (*Solution, error) {
	objRow2 := t.rows
	for i := 0; i < t.rows; i++ {
		b := t.basis[i]
		if c := t.a[objRow2][b]; c != 0 { //slate:nolint floatcmp -- pivot elimination skips exact zeros only
			denseAddRow(t.a[objRow2], t.a[i], -c)
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
func (t *denseTableau) warmStart(basis []int) bool {
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

func (t *denseTableau) hasArtificials() bool { return t.artBase < t.cols }

func (t *denseTableau) iterate(objRow int, phase1 bool) error {
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

func (t *denseTableau) chooseEntering(objRow int, phase1, bland bool) int {
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

func (t *denseTableau) chooseLeaving(enter int, bland bool) int {
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

// pivot makes column col basic in row. The pivot row's nonzero columns
// are collected once; each elimination then touches only those columns.
// Arithmetic is identical to the dense version (skipped entries would
// only ever add f·0), so solves are bit-for-bit reproducible regardless
// of sparsity.
func (t *denseTableau) pivot(row, col int) {
	if t.s.trace != nil {
		t.s.trace(row, col)
	}
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
func (t *denseTableau) driveOutArtificials() {
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

func denseAddRow(dst, src []float64, f float64) {
	for j, v := range src {
		if v != 0 { //slate:nolint floatcmp -- exact zeros contribute nothing
			dst[j] += f * v
		}
	}
}
