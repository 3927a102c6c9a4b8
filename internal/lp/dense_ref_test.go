package lp

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// The dense reference: the solver as it stood at 4f7cfa2, before the
// tableau went sparse, kept verbatim (types renamed, a pivot trace added)
// for TestSparseMatchesDense to hold the live one against, and extended
// since by two steps the live solver took on, each written for this
// tableau's storage: the dual simplex repair of a warm basis the
// right-hand side left infeasible (finishWarm), and the resumed solve
// from the tableau of the last optimal solve of the same model (resume);
// and cut down, as the live one was, when a Model came to hold only the
// standard form: newTableau no longer negates a row or places a slack or
// surplus column for an inequality. It shares the tolerances, tieBreak,
// errUnbounded, keptTol and the pivot budget with the live code;
// everything that touches storage is its own.

// denseSolver owns the dense tableau's scratch: one flat rows × columns
// array, cleared at the start of every solve but a resumed one.
type denseSolver struct {
	flat  []float64   // tableau backing array
	rowp  [][]float64 // row views into flat
	basis []int
	seen  []bool // warm-start basis validation scratch (per column)
	done  []bool // warm-start row-installed scratch (per row)
	nz    []int  // pivot-row nonzero column indices scratch

	// The tableau last built in flat, with newTableau's record of it:
	// each row's unit column (its initial basic one). kept names the
	// model whose optimum it holds, at that model's edit count; nil when
	// it holds none.
	last      *denseTableau
	unit      []int
	kept      *Model
	keptEdits uint64

	trace func(row, col int) // records the pivot sequence
}

// newDenseSolver returns a denseSolver with empty scratch.
func newDenseSolver() *denseSolver { return &denseSolver{} }

// Solve minimizes the model from a cold start (phase 1 to find a
// feasible vertex, then phase 2). The returned Solution records the
// optimal basis, which a later call can hand to SolveFrom to warm-start
// a nearby problem.
func (s *denseSolver) Solve(m *Model) (*Solution, error) {
	return s.SolveFrom(m, nil)
}

// SolveFrom minimizes the model starting from a previously optimal
// basis (as recorded in Solution.Basis), as Solver.Solve does: from
// the kept tableau when it applies, else from an installed basis —
// phase 2 from a basis the right-hand side left feasible, dual simplex
// pivots first from one it did not — and a cold solve when neither works
// out. The tableau of a warm solve that ended optimal is kept for the
// next solve.
//
// A nil or empty basis is an explicit cold start.
func (s *denseSolver) SolveFrom(m *Model, basis []int) (*Solution, error) {
	sol, err := s.solveFrom(m, basis)
	s.kept = nil
	if sol != nil && sol.Status == Optimal && sol.Warm {
		// The live solver keeps no artificial column whose row's
		// right-hand side is 0, and resumes only while it stays 0; this
		// tableau keeps every column and follows the same rule.
		unitRHS, _ := s.unitRHSOf(m, s.last.cols)
		for i, u := range s.unit {
			if u >= s.last.artBase && unitRHS[u] == 0 { //slate:nolint floatcmp -- only an exact zero reads no column of B⁻¹
				s.unit[i] = -1
			}
		}
		s.kept, s.keptEdits = m, m.edits
	}
	return sol, err
}

// unitRHSOf returns, per column, the right-hand side of the row whose
// unit column it is, as newTableau writes it; ok is false when a row
// whose unit column was dropped has a right-hand side other than 0.
func (s *denseSolver) unitRHSOf(m *Model, cols int) (unitRHS []float64, ok bool) {
	unitRHS = make([]float64, cols)
	set := func(i int, b float64) bool {
		if u := s.unit[i]; u >= 0 {
			unitRHS[u] = b
			return true
		}
		return b == 0 //slate:nolint floatcmp -- a dropped column of B⁻¹ is read by no right-hand side but an exact zero
	}
	for i, c := range m.cons {
		if !set(i, c.rhs) {
			return nil, false
		}
	}
	row := len(m.cons)
	for _, v := range m.vars {
		if !math.IsInf(v.upper, 1) {
			if !set(row, v.upper) {
				return nil, false
			}
			row++
		}
	}
	return unitRHS, true
}

func (s *denseSolver) solveFrom(m *Model, basis []int) (*Solution, error) {
	if len(basis) == 0 {
		return s.cold(m)
	}
	if t := s.resume(m, basis); t != nil {
		sol, err := t.finishWarm(m)
		if sol != nil && (sol.Status != Optimal || m.CheckFeasible(sol.X, keptTol) == nil) {
			sol.Warm, sol.Kept = true, true
			return sol, nil
		}
		if err != nil && !errors.Is(err, ErrIterLimit) {
			return nil, err
		}
	}
	if t := s.newTableau(m); t.warmStart(basis) {
		sol, err := t.finishWarm(m)
		if sol != nil {
			sol.Warm = true
			return sol, nil
		}
		if err != nil && !errors.Is(err, ErrIterLimit) {
			return nil, err
		}
		// The installed basis could not be finished warm (see
		// finishWarm), or warm pivots exhausted the budget (cycling from a
		// bad start); the cold path may still converge.
	}
	return s.cold(m)
}

func (s *denseSolver) cold(m *Model) (*Solution, error) {
	return s.newTableau(m).solve(m)
}

// resume returns the last tableau, readied for a solve of m from basis,
// when it holds m's optimum at that basis and m has changed since only in
// right-hand sides and costs; else nil, the tableau untouched. The rhs
// column becomes B⁻¹b — per row, the sum over the unit columns in
// ascending order of the row's entry times that column's right-hand
// side, zeros skipped — the phase-2 row m's costs, and the phase-1 row,
// unread after phase 1, zeros.
func (s *denseSolver) resume(m *Model, basis []int) *denseTableau {
	t := s.last
	if s.kept != m || s.keptEdits != m.edits || !slices.Equal(basis, t.basis) {
		return nil
	}
	unitRHS, ok := s.unitRHSOf(m, t.cols)
	if !ok {
		return nil
	}
	for i := 0; i < t.rows; i++ {
		var b float64
		for j, u := range unitRHS {
			if a := t.a[i][j]; u != 0 && a != 0 { //slate:nolint floatcmp -- zeros contribute nothing
				b += u * a
			}
		}
		t.a[i][t.cols] = b
	}
	clear(t.a[t.rows])
	clear(t.a[t.rows+1])
	for j, v := range m.vars {
		t.a[t.rows][j] = v.obj
	}
	return t
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

func (s *denseSolver) newTableau(m *Model) *denseTableau {
	n := len(m.vars)
	// Count rows and extra columns: explicit constraints, each with its
	// artificial, then upper bounds expanded into rows with a slack.
	nRows := len(m.cons)
	nSlack, nArt := 0, len(m.cons)
	for _, v := range m.vars {
		if !math.IsInf(v.upper, 1) {
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

	row := 0
	for i, c := range m.cons {
		for _, term := range c.terms {
			t.a[row][term.Var] = term.Coef
		}
		t.a[row][cols] = c.rhs
		t.a[row][t.artBase+i] = 1
		t.basis[row] = t.artBase + i
		row++
	}
	slackCol := n
	for j, v := range m.vars {
		if !math.IsInf(v.upper, 1) {
			t.a[row][j] = 1
			t.a[row][cols] = v.upper
			t.a[row][slackCol] = 1
			t.basis[row] = slackCol
			slackCol++
			row++
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
	s.unit = append(s.unit[:0], t.basis...)
	s.last = t
	return t
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
	t.priceOut()
	return t.phase2(m)
}

// priceOut prices the phase-2 row out for the current basis.
func (t *denseTableau) priceOut() {
	objRow2 := t.rows
	for i := 0; i < t.rows; i++ {
		b := t.basis[i]
		if c := t.a[objRow2][b]; c != 0 { //slate:nolint floatcmp -- pivot elimination skips exact zeros only
			denseAddRow(t.a[objRow2], t.a[i], -c)
		}
	}
}

// finishWarm finishes a solve from an installed basis: straight to phase
// 2 when it is primal feasible, through dual simplex pivots first when it
// is not; a nil Solution sends the caller to a cold solve, as does a
// basic artificial left above eps.
func (t *denseTableau) finishWarm(m *Model) (*Solution, error) {
	feasible := true
	for i := 0; i < t.rows; i++ {
		if t.a[i][t.cols] < -eps {
			feasible = false // new rhs left the old basis infeasible
		}
	}
	if !feasible {
		t.priceOut()
		pivots := t.dualRepair()
		if pivots == 0 || !t.artificialsAtZero() {
			return nil, nil
		}
		t.clampRHS()
		sol, err := t.phase2(m)
		if sol != nil {
			sol.DualPivots = pivots
		}
		return sol, err
	}
	if !t.artificialsAtZero() {
		return nil, nil
	}
	t.clampRHS()
	t.priceOut()
	return t.phase2(m)
}

// artificialsAtZero reports whether every basic artificial is at most
// eps: one above it breaks a constraint phase 2 cannot restore.
func (t *denseTableau) artificialsAtZero() bool {
	for i := 0; i < t.rows; i++ {
		if t.basis[i] >= t.artBase && t.a[i][t.cols] > eps {
			return false
		}
	}
	return true
}

// clampRHS zeroes the roundoff negatives left above −eps.
func (t *denseTableau) clampRHS() {
	for i := 0; i < t.rows; i++ {
		if t.a[i][t.cols] < 0 {
			t.a[i][t.cols] = 0 // clamp roundoff negatives
		}
	}
}

// dualRepair runs dual simplex pivots until no basic value is below −eps
// and returns how many it made, or 0 when the phase-2 row is not dual
// feasible, the leaving row has no entering column, or the budget runs
// out. It leaves the most negative right-hand side (the lowest row among
// equals) and enters the column that minimises max(d, 0)/−a over the
// row's entries a < −pivotEps in non-artificial columns (the lowest
// column among ratios eps apart).
func (t *denseTableau) dualRepair() int {
	obj := t.a[t.rows]
	for j := 0; j < t.artBase; j++ {
		if obj[j] < -eps {
			return 0
		}
	}
	maxIter := maxIterScale * (t.rows + t.cols + 10)
	for iter := 0; ; iter++ {
		leave, low := -1, -eps
		for i := 0; i < t.rows; i++ {
			if v := t.a[i][t.cols]; v < low {
				leave, low = i, v
			}
		}
		if leave < 0 {
			return iter
		}
		if iter > maxIter {
			return 0
		}
		enter, bestRatio := -1, math.Inf(1)
		for j := 0; j < t.artBase; j++ {
			if a := t.a[leave][j]; a < -pivotEps {
				if ratio := max(obj[j], 0) / -a; ratio < bestRatio-eps {
					enter, bestRatio = j, ratio
				}
			}
		}
		if enter < 0 {
			return 0
		}
		t.pivot(leave, enter)
	}
}

// phase2 runs phase-2 pivots from a primal-feasible basis whose phase-2
// row is priced out, and extracts the solution.
func (t *denseTableau) phase2(m *Model) (*Solution, error) {
	objRow2 := t.rows
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
// re-solve cold — when the basis does not fit this tableau's shape or the
// basis matrix is (near-)singular. On success phase 1 can be skipped:
// finishWarm takes the installed basis the rest of the way.
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
