package lp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// twin runs every solve on the live (sparse) Solver and on the dense
// reference, both reused from solve to solve, and fails the test unless
// the two made the same pivots in the same order and returned bit-equal
// Solutions (or the same error).
type twin struct {
	t        *testing.T
	sparse   solver
	dense    *denseSolver
	pivots   int // pivots compared so far
	warm     int // solves that installed their basis and needed no repair
	repaired int // solves whose installed or kept basis dual pivots repaired
	kept     int // solves that resumed from the kept tableau
	fell     int // solves given a basis that fell back to a cold start
	mixed    int // solves that pivoted with some rows wide and some narrow
}

func newTwin(t *testing.T) *twin {
	return &twin{t: t, sparse: newSolver(), dense: newDenseSolver()}
}

// forget drops both solvers' kept tableaux, as a solve of another model
// would: the next solve from a basis installs it.
func (w *twin) forget() {
	w.sparse.Forget()
	w.dense.kept = nil
}

func (w *twin) solveFrom(label string, m *Model, basis []int) *Solution {
	w.t.Helper()
	var got, want [][2]int
	wide := false // some pivot met the tableau with rows both wide and narrow
	w.sparse.t.trace = func(row, col int) {
		got = append(got, [2]int{row, col})
		if n := len(w.sparse.t.wideRows); n > 0 && n < w.sparse.t.rows {
			wide = true
		}
	}
	w.dense.trace = func(row, col int) { want = append(want, [2]int{row, col}) }
	sol, err := w.sparse.solve(m, basis)
	ref, refErr := w.dense.SolveFrom(m, basis)
	if !slices.Equal(got, want) {
		n := 0
		for n < len(got) && n < len(want) && got[n] == want[n] {
			n++
		}
		w.t.Fatalf("%s: pivot sequences part at pivot %d of %d (dense %d): sparse %v, dense %v",
			label, n, len(got), len(want), got[n:min(n+3, len(got))], want[n:min(n+3, len(want))])
	}
	w.pivots += len(got)
	if wide {
		w.mixed++
	}
	if (err == nil) != (refErr == nil) || (err != nil && (err.Error() != refErr.Error() || errors.Is(err, ErrIterLimit) != errors.Is(refErr, ErrIterLimit))) {
		w.t.Fatalf("%s: sparse error %v, dense error %v", label, err, refErr)
	}
	if err != nil {
		return nil
	}
	if sol.Status != ref.Status || sol.Warm != ref.Warm || sol.Kept != ref.Kept || sol.DualPivots != ref.DualPivots ||
		math.Float64bits(sol.Objective) != math.Float64bits(ref.Objective) {
		w.t.Fatalf("%s: sparse (%v, warm %v, kept %v, %d dual pivots, objective %v), dense (%v, warm %v, kept %v, %d dual pivots, objective %v)",
			label, sol.Status, sol.Warm, sol.Kept, sol.DualPivots, sol.Objective, ref.Status, ref.Warm, ref.Kept, ref.DualPivots, ref.Objective)
	}
	if !slices.Equal(sol.Basis, ref.Basis) {
		w.t.Fatalf("%s: sparse basis %v, dense %v", label, sol.Basis, ref.Basis)
	}
	if len(sol.X) != len(ref.X) {
		w.t.Fatalf("%s: sparse has %d values, dense %d", label, len(sol.X), len(ref.X))
	}
	for j := range ref.X {
		if math.Float64bits(sol.X[j]) != math.Float64bits(ref.X[j]) {
			w.t.Fatalf("%s: X[%d]: sparse %v (%#x), dense %v (%#x)", label, j,
				sol.X[j], math.Float64bits(sol.X[j]), ref.X[j], math.Float64bits(ref.X[j]))
		}
	}
	if sol.Kept {
		w.kept++
	}
	switch {
	case sol.DualPivots > 0:
		w.repaired++
	case sol.Warm && !sol.Kept:
		w.warm++
	case len(basis) > 0 && !sol.Warm:
		w.fell++
	}
	return sol
}

// routingLP is a small LP of the shape core.buildFormulation produces —
// pinned root demand, ±count conservation rows with zero right-hand
// sides, and one load row per pool, Σ (1+margin)·scale·x − Σ seg = 0,
// over many flows and bounded PWL segments, the margin set on about half
// the models — which is where the sparse tableau's harder cases live:
// exact cancellation among ±1 coefficients, fill-in, long degenerate
// stretches (Bland's rule) and ratio-test ties.
type routingLP struct {
	m        *Model
	demands  []int    // demand constraint indices
	conserve int      // the first conservation row
	links    [][2]int // (load row, one of its flow variables)
	segs     []Var
}

func randomRoutingLP(rng *rand.Rand) *routingLP {
	clusters := 2 + rng.Intn(3)
	classes := 1 + rng.Intn(3)
	depth := 1 + rng.Intn(3)
	margin := 0.0
	if rng.Intn(2) == 0 {
		margin = 0.25
	}
	m := NewModel()
	out := &routingLP{m: m}

	// flows[d][j] collects the flows into service d's pool in cluster j.
	flows := make([][][]Var, depth)
	for d := range flows {
		flows[d] = make([][]Var, clusters)
	}
	var total float64
	for k := 0; k < classes; k++ {
		into := make([][]Var, clusters) // parent-level flows executing in cluster j
		for i := 0; i < clusters; i++ {
			root := m.AddVar(0)
			dem := float64(rng.Intn(4) * 25) // often zero: degenerate vertices
			total += dem
			out.demands = append(out.demands, m.NumConstraints())
			m.MustConstraint([]Term{{root, 1}}, dem)
			into[i] = []Var{root}
		}
		for d := 0; d < depth; d++ {
			count := float64(1 + rng.Intn(2))
			next := make([][]Var, clusters)
			for i := 0; i < clusters; i++ {
				var terms []Term
				for j := 0; j < clusters; j++ {
					cost := 0.0
					if i != j {
						cost = float64(1+rng.Intn(3)) * 0.005
					}
					v := m.AddVar(cost)
					terms = append(terms, Term{v, 1})
					next[j] = append(next[j], v)
					flows[d][j] = append(flows[d][j], v)
				}
				for _, p := range into[i] {
					terms = append(terms, Term{p, -count})
				}
				if k == 0 && d == 0 && i == 0 {
					out.conserve = m.NumConstraints()
				}
				m.MustConstraint(terms, 0)
			}
			into = next
		}
	}
	for d := 0; d < depth; d++ {
		for j := 0; j < clusters; j++ {
			var terms []Term
			for _, v := range flows[d][j] {
				terms = append(terms, Term{v, (1 + margin) * []float64{1, 1, 0.5, 2}[rng.Intn(4)]})
			}
			for s, width := range []float64{total / 4, total / 4, 8 * total} {
				v := m.AddVar(float64(1+2*s) * 0.001)
				mustUpper(m, v, width+1)
				out.segs = append(out.segs, v)
				terms = append(terms, Term{v, -1})
			}
			out.links = append(out.links, [2]int{m.NumConstraints(), int(flows[d][j][0])})
			m.MustConstraint(terms, 0)
		}
	}
	return out
}

// churn moves the model the way a control tick does: demand right-hand
// sides always — by a few percent, which the last basis survives, or by
// the benchmark's ×1.15 / ×0.9, which it often does not — and now and
// then segment costs and widths, a load-row coefficient, or a
// coefficient zeroed in place.
func (r *routingLP) churn(t *testing.T, rng *rand.Rand) {
	t.Helper()
	up, down := 1.15, 0.9
	if rng.Intn(2) == 0 {
		up, down = 1.02, 0.99
	}
	for n, con := range r.demands {
		f := up
		if n%2 == rng.Intn(2) {
			f = down
		}
		if err := r.m.SetRHS(con, r.m.cons[con].rhs*f); err != nil {
			t.Fatal(err)
		}
	}
	if rng.Intn(3) == 0 {
		v := r.segs[rng.Intn(len(r.segs))]
		r.m.SetObj(v, r.m.vars[v].obj*(0.5+rng.Float64()))
		mustUpper(r.m, v, r.m.vars[v].upper*(0.8+0.4*rng.Float64()))
	}
	if rng.Intn(3) == 0 {
		l := r.links[rng.Intn(len(r.links))]
		coef := []float64{0, 0.5, 1, 3}[rng.Intn(4)]
		if err := r.m.SetCoef(l[0], Var(l[1]), coef); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSparseMatchesDense is the sparse tableau's licence: on every kind
// of solve the package knows, it must make the dense reference's pivots
// in the dense reference's order and return its Solution bit for bit —
// with rows going wide where they do, with none going wide (every
// elimination a merge) and with every eliminated row wide.
func TestSparseMatchesDense(t *testing.T) {
	for _, mode := range []struct {
		name string
		frac int
	}{
		{"rows widen at the default threshold", wideFrac},
		{"no row widens", 1},
		{"every eliminated row widens", math.MaxInt},
	} {
		t.Run(mode.name, func(t *testing.T) {
			defer func(old int) { wideFrac = old }(wideFrac)
			wideFrac = mode.frac
			sparseMatchesDense(t)
		})
	}
}

// sparseMatchesDense runs the suite at the current wideFrac. One sparse
// Solver and one dense one serve all of it, so every solve also runs in
// storage left behind by a model of another shape.
func sparseMatchesDense(t *testing.T) {
	w := newTwin(t)

	t.Run("random cold and warm chains", func(t *testing.T) {
		w.t = t
		rng := rand.New(rand.NewSource(53))
		for trial := 0; trial < 150; trial++ {
			m := randomFeasibleLP(rng)
			sol := w.solveFrom(fmt.Sprintf("trial %d cold", trial), m, nil)
			for step := 0; step < 6; step++ {
				// Small drift keeps the basis feasible; large drift leaves it
				// infeasible, and Solve repairs it with dual pivots or,
				// when no vertex satisfies the new rhs, falls back to a cold
				// start. Every other step starts from an install, the rest
				// from the kept tableau.
				scale := 0.05
				if (trial+step)%3 == 0 {
					scale = 5
				}
				perturbRHS(t, m, rng, scale)
				var basis []int
				if sol != nil && sol.Status == Optimal {
					basis = sol.Basis
				}
				if step%2 == 1 {
					w.forget()
				}
				sol = w.solveFrom(fmt.Sprintf("trial %d step %d", trial, step), m, basis)
			}
		}
		t.Logf("%d pivots compared, %d installed warm solves, %d kept, %d repaired, %d cold fallbacks",
			w.pivots, w.warm, w.kept, w.repaired, w.fell)
		if w.warm == 0 || w.kept == 0 || w.repaired == 0 || w.fell == 0 {
			t.Fatalf("%d installed warm solves, %d kept, %d repaired, %d cold fallbacks: the chains must take all four paths",
				w.warm, w.kept, w.repaired, w.fell)
		}
	})

	// A kept tableau applies only to the model it was solved for and only
	// while nothing but costs and right-hand sides moved; the solve
	// installs the basis otherwise. A moved cost resumes: the rows B⁻¹A do
	// not depend on it. So does a refused edit, which leaves the model as
	// it was.
	t.Run("kept tableau that does not apply", func(t *testing.T) {
		w.t = t
		rng := rand.New(rand.NewSource(83))
		for trial := 0; trial < 40; trial++ {
			m := randomFeasibleLP(rng)
			sol := w.solveFrom(fmt.Sprintf("refused %d cold", trial), m, nil)
			other := randomFeasibleLP(rng)
			w.solveFrom(fmt.Sprintf("refused %d other model", trial), other, nil)
			kept := w.kept
			sol = w.solveFrom(fmt.Sprintf("refused %d after another model", trial), m, sol.Basis)
			if w.kept != kept {
				t.Fatalf("trial %d: resumed from another model's tableau", trial)
			}
			edit := trial % 4
			switch edit {
			case 0: // a negative right-hand side, refused
				if err := m.SetRHS(rng.Intn(m.NumConstraints()), -1); err == nil {
					t.Fatal("SetRHS took a negative rhs")
				}
			case 1: // a cost moves
				v := Var(rng.Intn(m.NumVars()))
				m.SetObj(v, m.vars[v].obj+0.5)
			case 2:
				v := Var(rng.Intn(m.NumVars()))
				if err := m.SetCoef(0, v, 1.5); err != nil {
					t.Fatal(err)
				}
			case 3: // a bound comes off, and its row with it
				mustUpper(m, 0, math.Inf(1))
			}
			if sol.Status != Optimal {
				continue
			}
			kept = w.kept
			w.solveFrom(fmt.Sprintf("refused %d edit %d", trial, edit), m, sol.Basis)
			if resumed, want := w.kept != kept, edit <= 1; resumed != want {
				t.Fatalf("trial %d: edit %d resumed %v, want %v", trial, edit, resumed, want)
			}
		}
		// The kept rows lose the artificial columns of rows whose
		// right-hand side is 0 — a routing LP's conservation rows — so a
		// solve after one of them moved off 0 installs.
		for trial := 0; trial < 10; trial++ {
			r := randomRoutingLP(rng)
			sol := w.solveFrom(fmt.Sprintf("zero row %d cold", trial), r.m, nil)
			if err := r.m.SetRHS(r.conserve, 0.5); err != nil {
				t.Fatal(err)
			}
			kept := w.kept
			w.solveFrom(fmt.Sprintf("zero row %d moved", trial), r.m, sol.Basis)
			if w.kept != kept {
				t.Fatalf("trial %d: resumed after a zero right-hand side moved", trial)
			}
		}
	})

	// A moved objective leaves the installed basis without dual
	// feasibility: a basis the new rhs also left infeasible cannot be
	// repaired, and the solve falls back to a cold start.
	t.Run("moved objective", func(t *testing.T) {
		w.t = t
		rng := rand.New(rand.NewSource(79))
		fell := w.fell
		for trial := 0; trial < 60; trial++ {
			m := randomFeasibleLP(rng)
			sol := w.solveFrom(fmt.Sprintf("objective %d cold", trial), m, nil)
			if sol.Status != Optimal {
				continue
			}
			for j := range m.vars {
				m.SetObj(Var(j), rng.Float64()*4-2)
			}
			perturbRHS(t, m, rng, 5)
			w.solveFrom(fmt.Sprintf("objective %d moved", trial), m, sol.Basis)
		}
		if w.fell == fell {
			t.Fatal("no moved objective fell back to a cold start")
		}
	})

	t.Run("routing-shaped chains", func(t *testing.T) {
		w.t = t
		rng := rand.New(rand.NewSource(59))
		pivots, warm, kept, repaired, fell := w.pivots, w.warm, w.kept, w.repaired, w.fell
		for trial := 0; trial < 40; trial++ {
			r := randomRoutingLP(rng)
			sol := w.solveFrom(fmt.Sprintf("routing %d cold", trial), r.m, nil)
			for step := 0; step < 8; step++ {
				r.churn(t, rng)
				var basis []int
				if sol != nil && sol.Status == Optimal {
					basis = sol.Basis
				}
				sol = w.solveFrom(fmt.Sprintf("routing %d step %d", trial, step), r.m, basis)
			}
		}
		t.Logf("%d pivots compared, %d installed warm solves, %d kept, %d repaired, %d cold fallbacks",
			w.pivots-pivots, w.warm-warm, w.kept-kept, w.repaired-repaired, w.fell-fell)
		if w.warm == warm || w.kept == kept || w.repaired == repaired || w.fell == fell {
			t.Fatal("the chains must take the installed and the kept warm path, the dual repair and the cold fallback")
		}
		if wideFrac > 1 && wideFrac < math.MaxInt && w.mixed == 0 {
			t.Fatal("no solve ended with both wide and narrow rows")
		}
	})

	// Ratios a fraction of eps apart make the leaving row depend on the
	// order rows are met in, and solves rarely produce them: here the
	// column's list is handed over shuffled, repeating and naming rows that
	// do not hold the column, as fill-in and cancellation leave it, and some
	// of the rows have gone wide, as a row does in mid-solve.
	t.Run("ratio test over a disordered column list", func(t *testing.T) {
		rng := rand.New(rand.NewSource(71))
		for trial := 0; trial < 200; trial++ {
			m := NewModel()
			x := m.AddVar(-1)
			y := m.AddVar(-1)
			rows := 3 + rng.Intn(6)
			var holders []int32
			for i := 0; i < rows; i++ {
				terms := []Term{{y, 1}}
				if rng.Intn(4) > 0 {
					terms = append(terms, Term{x, 1})
					holders = append(holders, int32(i))
				}
				constrain(m, terms, le, 1+float64(rng.Intn(5))*0.6e-9)
			}
			dense := newDenseSolver().newTableau(m)
			var sparse tableau
			sparse.load(m)
			var narrow []int32 // the holders colRows should be left naming
			for _, r := range rng.Perm(rows) {
				if rng.Intn(3) == 0 {
					sparse.widen(r, sparse.row[r])
				}
			}
			for _, r := range holders {
				if sparse.wide[r] < 0 {
					narrow = append(narrow, r)
				}
			}
			for _, bland := range []bool{false, true} {
				list := append([]int32(nil), holders...)
				list = append(list, holders...)
				for i := 0; i < rows; i++ {
					list = append(list, int32(i))
				}
				rng.Shuffle(len(list), func(a, b int) { list[a], list[b] = list[b], list[a] })
				sparse.colRows[x] = list
				if got, want := sparse.chooseLeaving(int(x), bland), dense.chooseLeaving(int(x), bland); got != want {
					t.Fatalf("trial %d (bland %v): row %d leaves, dense picks %d", trial, bland, got, want)
				}
				if !slices.Equal(sparse.colRows[x], narrow) {
					t.Fatalf("trial %d: column list %v after the ratio test, want %v", trial, sparse.colRows[x], narrow)
				}
				var rows []int32
				for _, h := range sparse.holders(int(x)) {
					rows = append(rows, h.row)
				}
				if !slices.Equal(rows, holders) {
					t.Fatalf("trial %d: holders %v, want %v", trial, rows, holders)
				}
			}
		}
	})

	// From the slack basis, Dantzig's rule cycles on Beale's LP until the
	// degenerate stretch outlasts 2·(rows+1) pivots and hands the entering
	// choice to Bland's rule: the tournament's descent to its leftmost
	// eligible column. No other case here stays degenerate that long.
	t.Run("Beale's cycling LP", func(t *testing.T) {
		w.t = t
		m, slacks := bealeLP()
		pivots := w.pivots
		if sol := w.solveFrom("beale", m, slacks); sol.Status != Optimal || !sol.Warm {
			t.Fatalf("status %v, warm %v: want an optimal warm solve", sol.Status, sol.Warm)
		}
		if n, stretch := w.pivots-pivots, 2*(m.NumConstraints()+1); n <= stretch+1 {
			t.Fatalf("%d pivots: the solve never outlasted a %d-pivot degenerate stretch", n, stretch)
		}
	})

	t.Run("bases that cannot install", func(t *testing.T) {
		w.t = t
		m := randomFeasibleLP(rand.New(rand.NewSource(41)))
		for i, basis := range [][]int{
			nil,
			{},
			{0},
			{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
			{-1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19},
			{1 << 20, 1, 2, 3},
		} {
			w.solveFrom(fmt.Sprintf("bad basis %d", i), m, basis)
		}
	})

	t.Run("infeasible, unbounded, out of budget", func(t *testing.T) {
		w.t = t
		m := NewModel()
		x := m.AddVar(1)
		y := m.AddVar(1)
		constrain(m, []Term{{x, 1}, {y, 1}}, ge, 10)
		constrain(m, []Term{{x, 1}, {y, 2}}, le, 5)
		if sol := w.solveFrom("infeasible", m, nil); sol.Status != Infeasible {
			t.Fatalf("status %v, want infeasible", sol.Status)
		}

		m = NewModel()
		x = m.AddVar(-1)
		y = m.AddVar(0)
		constrain(m, []Term{{x, 1}, {y, -1}}, le, 4)
		if sol := w.solveFrom("unbounded", m, nil); sol.Status != Unbounded {
			t.Fatalf("status %v, want unbounded", sol.Status)
		}

		rng := rand.New(rand.NewSource(61))
		for _, scale := range []int{0, 1} {
			restore := SetIterBudgetScale(scale)
			r := randomRoutingLP(rng)
			w.solveFrom(fmt.Sprintf("budget scale %d cold", scale), r.m, nil)
			w.solveFrom(fmt.Sprintf("budget scale %d warm", scale), r.m, []int{0})
			restore()
		}
		restore := SetIterBudgetScale(0)
		if _, err := w.sparse.solve(randomRoutingLP(rng).m, nil); !errors.Is(err, ErrIterLimit) {
			t.Fatalf("zero budget: error %v, want ErrIterLimit", err)
		}
		restore()
	})

	t.Run("explicit zero term", func(t *testing.T) {
		w.t = t
		m := NewModel()
		x := m.AddVar(1)
		y := m.AddVar(2)
		z := m.AddVar(3)
		mustUpper(m, y, 8)
		constrain(m, []Term{{x, 1}, {y, 4}, {z, 1}}, ge, 10)
		constrain(m, []Term{{x, 1}, {y, -1}}, le, 3)
		sol := w.solveFrom("before zeroing", m, nil)
		// x stays a term of c, with coefficient 0: the dense tableau writes
		// the 0, the sparse one must not store it.
		if err := m.SetCoef(0, x, 0); err != nil {
			t.Fatal(err)
		}
		if len(m.cons[0].terms) != 4 {
			t.Fatalf("SetCoef(…, 0) removed the term: %v", m.cons[0].terms)
		}
		w.solveFrom("zeroed warm", m, sol.Basis)
		w.solveFrom("zeroed cold", m, nil)
		w.sparse.t.load(m)
		for i, row := range w.sparse.t.row {
			for _, e := range row {
				if e.val == 0 { //slate:nolint floatcmp -- the stored value must not be a zero of either sign
					t.Fatalf("row %d stores a zero in column %d", i, e.col)
				}
			}
		}
	})
}

// chooseEntering is the dense scan of the reduced costs that iterate made
// on every pivot before the pricing tournament, kept verbatim as the
// tournament's reference.
func (t *tableau) chooseEntering(obj []float64, phase1, bland bool) int {
	best, bestVal := -1, -eps
	end := t.cols
	if !phase1 {
		end = t.artBase // artificials may not re-enter in phase 2
	}
	for j, c := range obj[:end] {
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

// TestPricingMatchesScan holds the pricing tournament to the scan it
// replaced. The objective row moves as pivots move it: new values in the
// columns of an ascending pivot row — a dozen of them as in a narrow row,
// or half the row as in a wide one, some of them artificials, which
// phase 2 must ignore — and in the entering column. After every move
// both rules in both phases must pick the scan's column. The values
// include exact ties, both zeros and the neighbourhood of −eps; each
// phase builds its tree in storage left by another shape.
func TestPricingMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	special := []float64{-1, -1, -2, -0.5, math.Copysign(0, -1), 0, -eps, eps,
		math.Nextafter(-eps, -1), math.Nextafter(-eps, 0), 1, 3}
	draw := func() float64 {
		if rng.Intn(3) == 0 {
			return rng.NormFloat64()
		}
		return special[rng.Intn(len(special))]
	}
	var tab tableau
	var pr []entry
	var picks, none, wide int
	for trial := 0; trial < 400; trial++ {
		tab.cols = 1 + rng.Intn(80)
		tab.artBase = 1 + rng.Intn(tab.cols)
		obj := make([]float64, tab.cols+1)
		for j := range obj {
			obj[j] = draw()
		}
		for _, phase1 := range []bool{false, true} {
			end := tab.artBase
			if phase1 {
				end = tab.cols
			}
			tab.buildPrice(obj, end)
			for step := 0; step < 30; step++ {
				for _, bland := range []bool{false, true} {
					got, want := tab.entering(bland), tab.chooseEntering(obj, phase1, bland)
					if got != want {
						t.Fatalf("trial %d phase1 %v step %d bland %v: tournament picks %d, scan %d (end %d, row %v)",
							trial, phase1, step, bland, got, want, end, obj[:tab.cols])
					}
					if want < 0 {
						none++
					} else {
						picks++
					}
				}
				enter := rng.Intn(end)
				density := 6
				if rng.Intn(5) == 0 {
					density = 2
					wide++
				}
				// The entering column is usually in the row, as in a pivot;
				// reprice must not depend on it.
				pr = pr[:0]
				for j := 0; j < tab.cols; j++ {
					if (j == enter && rng.Intn(4) > 0) || rng.Intn(density) == 0 {
						obj[j] = draw()
						pr = append(pr, entry{int32(j), 1})
					}
				}
				obj[enter] = 0
				tab.reprice(obj, pr, enter, end)
			}
		}
	}
	if picks == 0 || none == 0 || wide == 0 {
		t.Fatalf("%d picks, %d optimal rows, %d wide rows: the moves must reach all three", picks, none, wide)
	}
}

// TestWorkspaceLetsGoOfInstallStorage: a Workspace that has served only
// resumed solves for trimAfter solves in a row keeps at most twice the
// dense row storage they used, not what the cold solve and the install
// before them grew; one that still sees an install now and then keeps it
// all, so that it does not allocate it again for every install. Every
// eliminated row goes wide here, so that those grow a lot of it.
func TestWorkspaceLetsGoOfInstallStorage(t *testing.T) {
	defer func(old int) { wideFrac = old }(wideFrac)
	wideFrac = math.MaxInt
	r := randomRoutingLP(rand.New(rand.NewSource(89)))
	s := newSolver()
	w := s.w
	sol, err := s.solve(r.m, nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("cold solve: %v, %+v", err, sol)
	}
	grown := cap(w.s.flat)
	base := make([]float64, len(r.demands))
	for n, con := range r.demands {
		base[n] = r.m.cons[con].rhs
	}
	run := 0
	solve := func(install bool) {
		t.Helper()
		// Swing alternate demands ×1.15 and ×0.9 of their first value,
		// the other way round on every other run.
		for n, con := range r.demands {
			f := 1.15
			if (n+run)%2 == 0 {
				f = 0.9
			}
			if err := r.m.SetRHS(con, base[n]*f); err != nil {
				t.Fatal(err)
			}
		}
		run++
		if install {
			s.Forget()
		}
		if sol, err = s.solve(r.m, sol.Basis); err != nil || !sol.Warm || sol.Kept == install {
			t.Fatalf("run %d: %v, %+v; want install %v", run, err, sol, install)
		}
		grown = max(grown, cap(w.s.flat))
	}
	// An install every trimAfter−1 solves: nothing is let go.
	for n := range 4 * trimAfter {
		solve(n%(trimAfter-1) == 0)
		if cap(w.s.flat) < grown {
			t.Fatalf("run %d: the Workspace let go of dense rows between installs (%d of %d floats kept)", run, cap(w.s.flat), grown)
		}
	}
	// Resumed solves only: the install-sized storage goes at the
	// trimAfter-th, and does not come back.
	solve(true)
	for n := 1; n <= 2*trimAfter; n++ {
		solve(false)
		if n >= trimAfter && cap(w.s.flat) > 2*w.keptFlat {
			t.Fatalf("resumed solve %d: the Workspace keeps %d floats of dense rows, resumed solves used at most %d", n, cap(w.s.flat), w.keptFlat)
		}
	}
	if cap(w.s.flat) >= grown {
		t.Fatalf("the Workspace kept the %d floats of dense rows installs grew; resumed solves used at most %d", grown, w.keptFlat)
	}
}

// TestWarmSolveAllocatesOnlySolution pins the steady state: once a Solver
// has grown to a model, a warm re-solve allocates its Solution (the
// struct, X and Basis) and nothing else — whether demand drifted little
// enough for the basis to stay feasible or swung far enough that dual
// pivots repair it, and whether the solve resumed from the kept tableau,
// installed the basis, or did one and then the other in turn, as a
// worker does whose shards' costs were refitted on one tick and not the
// next.
func TestWarmSolveAllocatesOnlySolution(t *testing.T) {
	for _, c := range []struct {
		name     string
		seed     int64
		up, down float64 // the two right-hand sides are d·up, d·down and back
		repair   bool    // every run repairs its basis
		install  int     // every install-th run installs its basis; 0 none
	}{
		{"drift", 67, 1.02, 0.98, false, 0},
		{"swing", 65, 1.15, 0.9, true, 0},
		{"installed drift", 67, 1.02, 0.98, false, 1},
		{"installed swing", 65, 1.15, 0.9, true, 1},
		{"installed and resumed swing", 65, 1.15, 0.9, true, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(c.seed))
			r := randomRoutingLP(rng)
			s := newSolver()
			base, err := s.solve(r.m, nil)
			if err != nil || base.Status != Optimal {
				t.Fatalf("base solve: %v, %+v", err, base)
			}
			// Alternate between two right-hand sides, each solved from the
			// other's basis, so that every run installs a basis and then
			// pivots. The swing moves alternate demands opposite ways, as
			// the benchmark's churn does.
			var rhs [2][]float64
			for n, con := range r.demands {
				d := r.m.cons[con].rhs
				up, down := c.up, c.down
				if c.repair && n%2 == 1 {
					up, down = down, up
				}
				rhs[0] = append(rhs[0], d*up)
				rhs[1] = append(rhs[1], d*down)
			}
			run, pivots, cold, repaired, kept, installed := 0, 0, 0, 0, 0, 0
			s.t.trace = func(int, int) { pivots++ }
			basis := base.Basis
			solve := func() {
				for n, con := range r.demands {
					if err := r.m.SetRHS(con, rhs[run%2][n]); err != nil {
						t.Fatal(err)
					}
				}
				run++
				forget := c.install > 0 && run%c.install == 0
				if forget {
					s.Forget()
				}
				// The cold base solve keeps no tableau: the first run installs.
				if forget || run == 1 {
					installed++
				}
				sol, err := s.solve(r.m, basis)
				if err != nil || sol.Status != Optimal {
					t.Fatalf("warm solve: %v, %+v", err, sol)
				}
				if !sol.Warm {
					cold++
				}
				if sol.DualPivots > 0 {
					repaired++
				}
				if sol.Kept {
					kept++
				}
				basis = sol.Basis
			}
			// Grow the buffers: each right-hand side once installed, once
			// resumed.
			for range 4 {
				solve()
			}
			if allocs := testing.AllocsPerRun(20, solve); allocs != 3 { //slate:nolint floatcmp -- AllocsPerRun returns an integer-valued count
				t.Errorf("a warm solve on a grown Solver allocates %v times, want 3 (Solution, X, Basis)", allocs)
			}
			t.Logf("%d runs: %d pivots, %d repaired, %d kept, %d cold", run, pivots, repaired, kept, cold)
			// A kept tableau that drift left optimal needs no pivot at all.
			if (c.install > 0 || c.repair) && pivots == 0 || cold != 0 {
				t.Fatalf("%d pivots, %d cold solves over %d runs: the pin must measure warm solves that pivot", pivots, cold, run)
			}
			if c.repair && repaired != run || !c.repair && repaired != 0 {
				t.Fatalf("%d of %d runs repaired their basis, want %v", repaired, run, c.repair)
			}
			if kept != run-installed {
				t.Fatalf("%d of %d runs resumed from the kept tableau, want %d", kept, run, run-installed)
			}
		})
	}
}
