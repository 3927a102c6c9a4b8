package lp

import (
	"fmt"
	"math"
	"slices"
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

// entry is one stored coefficient of a constraint row.
type entry struct {
	col int32
	val float64
}

// holder is one nonzero coefficient of a column.
type holder struct {
	row int32
	val float64
}

// tableau is the standard-form simplex tableau
//
//	rows 0..m-1:  A | b   (b ≥ 0)
//	obj2:         phase-2 objective (original costs)
//	obj1:         phase-1 objective (artificial costs), unread after phase 1
//
// over n structural columns, then slack/surplus, then artificials, stored
// by its nonzeros: SLATE's flow LPs are > 99 % zeros and a decomposed
// shard stays so under pivoting. A constraint row is its nonzero
// coefficients in ascending column order, its right-hand side beside it
// in rhs; colRows indexes the rows by column. A row that fills in past
// cols/wideFrac entries — a few load-link rows of a shard, nearly every
// row of a monolithic LP whose classes share their pools — moves to a
// dense array for the rest of the solve: merging into a long row costs
// its length, indexing into it costs the pivot row's. The two objective
// rows are dense, indexed by column, the right-hand side in their last
// slot; the entering column is read off a tournament over the active one
// (price), which a pivot updates in the pivot row's columns only.
//
// The arithmetic is the dense tableau's (dense_ref_test.go), operation
// for operation: a pivot subtracts c·p from exactly the entries where the
// dense one would have subtracted a nonzero product, an entry absent here
// is a 0 there, and every order-dependent choice (leaving-row ties, the
// warm start's pivot search) visits rows in ascending order as a dense
// scan does, and the tournament picks the column the dense scan of the
// reduced costs picks. TestSparseMatchesDense holds the two to the same
// pivots and bit-equal Solutions.
type tableau struct {
	rows    int // constraint rows
	cols    int // total columns excluding rhs
	n       int // structural variables
	artBase int // first artificial column; artificials are [artBase, cols)
	row     [][]entry
	rhs     []float64
	obj2    []float64
	obj1    []float64
	basis   []int
	// colRows[j] lists the narrow rows that may hold column j: a superset
	// of those that do, unordered and possibly repeating. Fill-in appends;
	// cancellation and widening leave their row behind for holders to drop.
	colRows [][]int32
	// wide[i] ≥ 0 says row i is stored densely, at flat[wide[i]:][:cols]
	// (row[i] is then empty); wideRows lists those rows in ascending order.
	wide     []int
	wideRows []int32
	flat     []float64

	merged []entry  // eliminate's scratch: one narrow row under construction
	prow   []entry  // pivot's scratch: a wide pivot row's nonzeros
	held   []holder // holders' result
	seen   []bool   // warm-start basis validation scratch (per column)
	done   []bool   // warm-start row-installed scratch (per row)

	// price is the pricing tournament over the active objective row's
	// columns [0, end): a complete binary tree whose leaves, from
	// price[leaves], are the columns in order (padded with ineligible
	// slots to a power of two) and whose every inner node holds the better
	// of its two children. iterate builds it once per phase.
	price  []slot
	leaves int

	trace func(row, col int) // tests record the pivot sequence; nil otherwise
}

// slot is one node of the pricing tournament: the column winning its
// subtree and that column's key — its reduced cost when the column may
// enter (cost < −eps), else 0. A key is never NaN or −0.
type slot struct {
	key float64
	col int32
}

// priceKey is a reduced cost's key in the tournament.
func priceKey(c float64) float64 {
	if c < -eps {
		return c
	}
	return 0
}

// better returns the winner of two subtrees, a holding the lower
// columns: the smaller key, a on a tie. Over keys that is the dense
// scan's choice — the most negative reduced cost, the first column
// among equals — and an ineligible column (key 0) never beats an
// eligible one.
func better(a, b slot) slot {
	if b.key < a.key {
		return b
	}
	return a
}

// wideFrac sets where a row goes wide: past cols/wideFrac nonzeros. Wide,
// a row costs cols floats, a visit in every column scan and an end-to-end
// scan whenever it is the pivot row; narrow, its whole length in every
// elimination. The choice moves no pivot. Timed under tournament pricing
// at GOMAXPROCS 1, as median ratios to 32 over 12–20 interleaved rounds:
// 16 costs +16 % CPU per ctrl-churn tick (1 764-column shards) and
// +4 / −8 / +53 % on the scalability figure's 12-cluster / 16-class /
// 16-service monolithic solves; 64 costs −1 % and +11 / −3 / −10 %. 32
// stays. Tests move it to force either storage.
var wideFrac = 32

// resize returns s with length n, keeping its elements — and the buffers
// they own — up to its old capacity. New elements are zero; kept ones are
// whatever the last solve left.
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// load builds the initial tableau for m straight from the model's terms,
// in storage kept from earlier solves: nothing of size rows × cols is
// allocated or cleared.
func (t *tableau) load(m *Model) error {
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
				return fmt.Errorf("lp: variable %s has negative upper bound %v", v.name, v.upper)
			}
			nRows++
			nSlack++
		}
	}
	cols := n + nSlack + nArt
	t.rows, t.cols, t.n, t.artBase = nRows, cols, n, n+nSlack
	t.row = resize(t.row, nRows)
	t.rhs = resize(t.rhs, nRows)
	t.basis = resize(t.basis, nRows)
	t.colRows = resize(t.colRows, cols)
	for j := range t.colRows {
		t.colRows[j] = t.colRows[j][:0]
	}
	t.wide = resize(t.wide, nRows)
	for i := range t.wide {
		t.wide[i] = -1
	}
	t.wideRows = t.wideRows[:0]
	t.flat = t.flat[:0]
	t.prow = resize(t.prow, cols)
	t.obj2 = resize(t.obj2, cols+1)
	t.obj1 = resize(t.obj1, cols+1)
	clear(t.obj2)
	clear(t.obj1)

	slackCol, artCol := n, t.artBase
	row := 0
	// place closes row with its slack and artificial columns, which lie
	// above every structural one: the row stays in column order.
	place := func(rel Rel) {
		switch rel {
		case LE:
			t.put(row, slackCol, 1)
			t.basis[row] = slackCol
			slackCol++
		case GE:
			t.put(row, slackCol, -1)
			slackCol++
			t.put(row, artCol, 1)
			t.basis[row] = artCol
			artCol++
		case EQ:
			t.put(row, artCol, 1)
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
		t.row[row] = t.row[row][:0]
		for _, term := range c.terms { // ascending Var, one term per Var
			// SetCoef(…, 0) leaves an explicit zero term behind.
			if v := sign * term.Coef; v != 0 { //slate:nolint floatcmp -- sparsity: only nonzero coefficients are stored
				t.put(row, int(term.Var), v)
			}
		}
		t.rhs[row] = sign * c.rhs
		place(rel)
	}
	for j, v := range m.vars {
		if !math.IsInf(v.upper, 1) {
			t.row[row] = t.row[row][:0]
			t.put(row, j, 1)
			t.rhs[row] = v.upper
			place(LE)
		}
	}
	// Phase-2 objective row: original costs (minimization).
	for j, v := range m.vars {
		t.obj2[j] = v.obj
	}
	// Phase-1 objective row: sum of artificials.
	for j := t.artBase; j < cols; j++ {
		t.obj1[j] = 1
	}
	return nil
}

// put appends a coefficient to a row under construction.
func (t *tableau) put(row, col int, v float64) {
	t.row[row] = append(t.row[row], entry{int32(col), v})
	t.colRows[col] = append(t.colRows[col], int32(row))
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

// coef returns row i's coefficient in column col, 0 where it stores none.
func (t *tableau) coef(i, col int) float64 {
	if off := t.wide[i]; off >= 0 {
		return t.flat[off+col]
	}
	r := t.row[i]
	lo, hi := 0, len(r)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(r[mid].col) < col {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(r) && int(r[lo].col) == col {
		return r[lo].val
	}
	return 0
}

// holders lists column col's nonzeros in ascending row order, each row
// once: the narrow rows that colRows[col] names — sorted on the way, and
// rid of what went stale — merged with the wide rows. The result is
// scratch the next call overwrites.
func (t *tableau) holders(col int) []holder {
	t.held = t.held[:0]
	list := t.colRows[col]
	slices.Sort(list)
	wide := t.wideRows
	live := 0
	for _, r := range list {
		if t.wide[r] >= 0 || (live > 0 && list[live-1] == r) {
			continue
		}
		v := t.coef(int(r), col)
		if v == 0 { //slate:nolint floatcmp -- an exact zero is an absent entry
			continue
		}
		list[live] = r
		live++
		for ; len(wide) > 0 && wide[0] < r; wide = wide[1:] {
			t.hold(wide[0], col)
		}
		t.held = append(t.held, holder{r, v})
	}
	for _, r := range wide {
		t.hold(r, col)
	}
	t.colRows[col] = list[:live]
	return t.held
}

// hold adds wide row r to holders' result if it holds column col.
func (t *tableau) hold(r int32, col int) {
	if v := t.flat[t.wide[r]+col]; v != 0 { //slate:nolint floatcmp -- an exact zero is an absent entry
		t.held = append(t.held, holder{r, v})
	}
}

// solve runs both phases from the all-slack/artificial start.
func (t *tableau) solve(m *Model) (*Solution, error) {
	// Price out the initial basis from the phase-1 row (artificials have
	// cost 1 and are basic).
	for i := 0; i < t.rows; i++ {
		if t.basis[i] >= t.artBase {
			t.addRow(t.obj1, i, -1)
		}
	}
	if t.hasArtificials() {
		if err := t.iterate(true); err != nil {
			return nil, err
		}
		if t.obj1[t.cols] < -eps {
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
	for i := 0; i < t.rows; i++ {
		if c := t.obj2[t.basis[i]]; c != 0 { //slate:nolint floatcmp -- pivot elimination skips exact zeros only
			t.addRow(t.obj2, i, -c)
		}
	}
	if err := t.iterate(false); err != nil {
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
			sol.X[b] = t.rhs[i]
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
	t.seen = resize(t.seen, t.cols)
	clear(t.seen)
	seen := t.seen
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
	t.done = resize(t.done, t.rows)
	clear(t.done)
	done := t.done
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
		for _, h := range t.holders(col) {
			if done[h.row] {
				continue
			}
			if v := math.Abs(h.val); v > bestAbs {
				best = int(h.row)
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
		rhs := t.rhs[i]
		if rhs < -eps {
			return false // new rhs left the old basis infeasible
		}
		if rhs < 0 {
			t.rhs[i] = 0 // clamp roundoff negatives
		}
	}
	return true
}

var errUnbounded = fmt.Errorf("lp: unbounded")

func (t *tableau) hasArtificials() bool { return t.artBase < t.cols }

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

// iterate runs primal simplex pivots until the phase's objective row has
// no negative reduced costs. In phase 1 the artificial columns
// participate; in phase 2 they are barred from entering.
//
//slate:hot
func (t *tableau) iterate(phase1 bool) error {
	obj, end := t.obj2, t.artBase // artificials may not re-enter in phase 2
	if phase1 {
		obj, end = t.obj1, t.cols
	}
	t.buildPrice(obj, end)
	maxIter := maxIterScale * (t.rows + t.cols + 10)
	degenerate := 0
	bland := false
	for iter := 0; ; iter++ {
		if iter > maxIter {
			return t.iterLimit(maxIter)
		}
		enter := t.entering(bland)
		if enter < 0 {
			return nil // optimal for this phase
		}
		leave := t.chooseLeaving(enter, bland)
		if leave < 0 {
			return errUnbounded
		}
		if t.rhs[leave] < eps {
			degenerate++
			if degenerate > 2*(t.rows+1) {
				bland = true // anti-cycling
			}
		} else {
			degenerate = 0
			bland = false
		}
		t.reprice(obj, t.pivot(leave, enter), enter, end)
	}
}

//slate:cold
func (t *tableau) iterLimit(maxIter int) error {
	return fmt.Errorf("%w after %d pivots (%d rows, %d cols)", ErrIterLimit, maxIter, t.rows, t.cols)
}

// buildPrice builds the pricing tournament over obj[:end].
func (t *tableau) buildPrice(obj []float64, end int) {
	leaves := 1
	for leaves < end {
		leaves <<= 1
	}
	if cap(t.price) < 2*leaves {
		t.growPrice(2 * leaves)
	}
	t.price = t.price[:2*leaves]
	t.leaves = leaves
	for j, c := range obj[:end] {
		t.price[leaves+j] = slot{priceKey(c), int32(j)}
	}
	for j := end; j < leaves; j++ {
		t.price[leaves+j] = slot{0, int32(j)}
	}
	for i := leaves - 1; i > 0; i-- {
		t.price[i] = better(t.price[2*i], t.price[2*i+1])
	}
}

//slate:cold
func (t *tableau) growPrice(need int) {
	t.price = make([]slot, need)
}

// reprice brings the tournament up to date with obj after a pivot in
// column col, which changed obj only in the columns of pr — the pivot
// row's nonzeros — and in col.
func (t *tableau) reprice(obj []float64, pr []entry, col, end int) {
	for _, e := range pr {
		if int(e.col) >= end {
			break
		}
		t.repriceCol(obj, int(e.col))
	}
	t.repriceCol(obj, col)
}

// repriceCol replays the matches above column j's leaf, stopping at the
// first node whose winner does not change: nothing above it can.
func (t *tableau) repriceCol(obj []float64, j int) {
	i := t.leaves + j
	s := slot{priceKey(obj[j]), int32(j)}
	if s == t.price[i] {
		return
	}
	t.price[i] = s
	for i >>= 1; i > 0; i >>= 1 {
		w := better(t.price[2*i], t.price[2*i+1])
		if w == t.price[i] {
			return
		}
		t.price[i] = w
	}
}

// entering returns the column to enter, or -1 when no reduced cost is
// below −eps: under Dantzig's rule the most negative (the first among
// equals), under Bland's the first. A subtree holds an eligible column
// iff its winner is one, so Bland's descends to the leftmost.
func (t *tableau) entering(bland bool) int {
	if t.price[1].key >= -eps {
		return -1
	}
	i := 1
	if bland {
		for i < t.leaves {
			i *= 2
			if t.price[i].key >= -eps {
				i++
			}
		}
	}
	return int(t.price[i].col)
}

// chooseLeaving runs the ratio test over the rows holding column enter,
// in ascending order: its eps tie-break depends on the order they are met.
func (t *tableau) chooseLeaving(enter int, bland bool) int {
	best := -1
	bestRatio := math.Inf(1)
	for _, h := range t.holders(enter) {
		i := int(h.row)
		if h.val <= pivotEps {
			continue
		}
		ratio := t.rhs[i] / h.val
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

// pivot makes column col basic in row: the row is scaled by 1/pivot and
// c·row is subtracted from every other row holding a c in the column.
// It returns the scaled row's nonzeros, valid until the next pivot.
func (t *tableau) pivot(row, col int) []entry {
	if t.trace != nil {
		t.trace(row, col)
	}
	inv := 1 / t.coef(row, col)
	pr := t.scale(row, inv)
	// As in the dense pivot, the right-hand side takes part iff it was
	// nonzero before scaling.
	prRHS, withRHS := 0.0, t.rhs[row] != 0 //slate:nolint floatcmp -- exact zeros carry no pivot contribution
	if withRHS {
		prRHS = t.rhs[row] * inv
		t.rhs[row] = prRHS
	}
	for _, h := range t.holders(col) {
		i := int(h.row)
		if i == row {
			continue
		}
		t.eliminate(i, pr, h.val, col)
		if withRHS {
			t.rhs[i] -= h.val * prRHS
		}
	}
	t.eliminateObj(t.obj2, pr, col, prRHS, withRHS)
	t.eliminateObj(t.obj1, pr, col, prRHS, withRHS)
	// Column col now holds row alone, which colRows names iff it is narrow
	// (and then named before, so there is room).
	list := t.colRows[col][:0]
	if t.wide[row] < 0 {
		list = list[:1]
		list[0] = int32(row)
	}
	t.colRows[col] = list
	t.basis[row] = col
	return pr
}

// scale multiplies row i by inv and returns its nonzeros in ascending
// column order: the row itself, or scratch filled from a wide row.
func (t *tableau) scale(i int, inv float64) []entry {
	k := 0
	if off := t.wide[i]; off >= 0 {
		w := t.flat[off : off+t.cols]
		for j, v := range w {
			if v == 0 { //slate:nolint floatcmp -- sparsity: exact zeros carry no pivot contribution
				continue
			}
			v *= inv
			w[j] = v
			if v != 0 { //slate:nolint floatcmp -- a product that underflowed contributes nothing
				t.prow[k] = entry{int32(j), v}
				k++
			}
		}
		return t.prow[:k]
	}
	pr := t.row[i]
	for _, e := range pr {
		if v := e.val * inv; v != 0 { //slate:nolint floatcmp -- sparsity: a product that underflowed is not stored
			pr[k] = entry{e.col, v}
			k++
		}
	}
	t.row[i] = pr[:k]
	return pr[:k]
}

// eliminate replaces row i by row i − c·pr, where c is row i's entry in
// column col. In a wide row that is the dense tableau's own loop. In a
// narrow one it is a merge of two ascending runs: the entry in col is
// dropped (the dense pivot writes an exact 0 there), so is any that
// cancels to exactly 0, and a product landing on an absent entry fills in
// as 0 − c·p.
func (t *tableau) eliminate(i int, pr []entry, c float64, col int) {
	if off := t.wide[i]; off >= 0 {
		w := t.flat[off : off+t.cols]
		for _, p := range pr {
			w[p.col] -= c * p.val
		}
		w[col] = 0 // cancel roundoff exactly
		return
	}
	ri := t.row[i]
	if need := len(ri) + len(pr); cap(t.merged) < need {
		t.growMerged(need)
	}
	out := t.merged[:cap(t.merged)]
	k, a := 0, 0
	for _, p := range pr {
		for a < len(ri) && ri[a].col < p.col {
			out[k] = ri[a]
			k++
			a++
		}
		var v float64
		if a < len(ri) && ri[a].col == p.col {
			v = ri[a].val - c*p.val
			a++
			if int(p.col) == col {
				continue
			}
		} else {
			v = 0 - c*p.val
			if v != 0 { //slate:nolint floatcmp -- sparsity: a product that underflowed fills nothing in
				t.colRows[p.col] = append(t.colRows[p.col], int32(i))
			}
		}
		if v != 0 { //slate:nolint floatcmp -- sparsity: exact cancellation leaves no entry
			out[k] = entry{p.col, v}
			k++
		}
	}
	k += copy(out[k:], ri[a:])
	if k > t.cols/wideFrac {
		t.widen(i, out[:k])
		return
	}
	t.row[i] = t.row[i][:0]
	t.row[i] = append(t.row[i], out[:k]...)
}

// widen moves row i, whose nonzeros are in, to dense storage.
func (t *tableau) widen(i int, in []entry) {
	off := len(t.flat)
	if cap(t.flat) < off+t.cols {
		t.growFlat(off + t.cols)
	}
	t.flat = t.flat[:off+t.cols]
	w := t.flat[off:]
	clear(w)
	for _, e := range in {
		w[e.col] = e.val
	}
	t.row[i] = t.row[i][:0]
	t.wide[i] = off
	// Keep wideRows ascending.
	t.wideRows = append(t.wideRows, int32(i))
	for k := len(t.wideRows) - 1; k > 0 && t.wideRows[k-1] > int32(i); k-- {
		t.wideRows[k-1], t.wideRows[k] = t.wideRows[k], t.wideRows[k-1]
	}
}

//slate:cold
func (t *tableau) growFlat(need int) {
	grown := make([]float64, len(t.flat), 2*need)
	copy(grown, t.flat)
	t.flat = grown
}

// eliminateObj is eliminate for a dense objective row.
func (t *tableau) eliminateObj(obj []float64, pr []entry, col int, prRHS float64, withRHS bool) {
	c := obj[col]
	if c == 0 { //slate:nolint floatcmp -- pivot elimination skips exact zeros only
		return
	}
	for _, p := range pr {
		obj[p.col] -= c * p.val
	}
	if withRHS {
		obj[t.cols] -= c * prRHS
	}
	obj[col] = 0 // cancel roundoff exactly
}

//slate:cold
func (t *tableau) growMerged(need int) {
	t.merged = make([]entry, 2*need)
}

// driveOutArtificials pivots any artificial still basic at value ~0 out
// of the basis; if a row has no eligible pivot it is redundant and the
// artificial stays at zero harmlessly (it cannot re-enter in phase 2).
func (t *tableau) driveOutArtificials() {
	for i := 0; i < t.rows; i++ {
		if t.basis[i] < t.artBase {
			continue
		}
		if col := t.firstStructural(i); col >= 0 {
			t.pivot(i, col)
		}
	}
}

// firstStructural returns the lowest non-artificial column in which row i
// holds an entry a pivot may divide by, or -1.
func (t *tableau) firstStructural(i int) int {
	if off := t.wide[i]; off >= 0 {
		for j, v := range t.flat[off : off+t.artBase] {
			if math.Abs(v) > pivotEps {
				return j
			}
		}
		return -1
	}
	for _, e := range t.row[i] {
		if int(e.col) >= t.artBase {
			break
		}
		if math.Abs(e.val) > pivotEps {
			return int(e.col)
		}
	}
	return -1
}

// addRow adds f times constraint row i, right-hand side included, to an
// objective row.
func (t *tableau) addRow(obj []float64, i int, f float64) {
	if off := t.wide[i]; off >= 0 {
		for j, v := range t.flat[off : off+t.cols] {
			if v != 0 { //slate:nolint floatcmp -- exact zeros contribute nothing
				obj[j] += f * v
			}
		}
	} else {
		for _, e := range t.row[i] {
			obj[e.col] += f * e.val
		}
	}
	if rhs := t.rhs[i]; rhs != 0 { //slate:nolint floatcmp -- exact zeros contribute nothing
		obj[t.cols] += f * rhs
	}
}
