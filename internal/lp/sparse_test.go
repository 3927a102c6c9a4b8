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
	t      *testing.T
	sparse *Solver
	dense  *denseSolver
	pivots int // pivots compared so far
	warm   int // solves that installed their basis
	fell   int // solves given a basis that fell back to a cold start
	mixed  int // solves that ended with some rows wide and some narrow
}

func newTwin(t *testing.T) *twin {
	return &twin{t: t, sparse: NewSolver(), dense: newDenseSolver()}
}

func (w *twin) solveFrom(label string, m *Model, basis []int) *Solution {
	w.t.Helper()
	var got, want [][2]int
	w.sparse.t.trace = func(row, col int) { got = append(got, [2]int{row, col}) }
	w.dense.trace = func(row, col int) { want = append(want, [2]int{row, col}) }
	sol, err := w.sparse.SolveFrom(m, basis)
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
	if n := len(w.sparse.t.wideRows); n > 0 && n < w.sparse.t.rows {
		w.mixed++
	}
	if (err == nil) != (refErr == nil) || (err != nil && (err.Error() != refErr.Error() || errors.Is(err, ErrIterLimit) != errors.Is(refErr, ErrIterLimit))) {
		w.t.Fatalf("%s: sparse error %v, dense error %v", label, err, refErr)
	}
	if err != nil {
		return nil
	}
	if sol.Status != ref.Status || sol.Warm != ref.Warm || math.Float64bits(sol.Objective) != math.Float64bits(ref.Objective) {
		w.t.Fatalf("%s: sparse (%v, warm %v, objective %v), dense (%v, warm %v, objective %v)",
			label, sol.Status, sol.Warm, sol.Objective, ref.Status, ref.Warm, ref.Objective)
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
	switch {
	case sol.Warm:
		w.warm++
	case len(basis) > 0:
		w.fell++
	}
	return sol
}

// routingLP is a small LP of the shape core.buildFormulation produces —
// pinned root demand, ±count conservation rows with zero right-hand
// sides, load-link rows over many flows, bounded PWL segments, and
// optionally the robust surge rows — which is where the sparse tableau's
// harder cases live: exact cancellation among ±1 coefficients, fill-in,
// long degenerate stretches (Bland's rule) and ratio-test ties.
type routingLP struct {
	m       *Model
	demands []int    // demand constraint indices
	links   [][2]int // (loadlink constraint, one of its flow variables)
	segs    []Var
}

func randomRoutingLP(rng *rand.Rand) *routingLP {
	clusters := 2 + rng.Intn(3)
	classes := 1 + rng.Intn(3)
	depth := 1 + rng.Intn(3)
	robust := rng.Intn(2) == 0
	m := NewModel()
	out := &routingLP{m: m}

	// flows[d][j] collects (variable, class) of the flows into service d's
	// pool in cluster j.
	type flow struct {
		v     Var
		class int
	}
	flows := make([][][]flow, depth)
	for d := range flows {
		flows[d] = make([][]flow, clusters)
	}
	var total float64
	for k := 0; k < classes; k++ {
		into := make([][]Var, clusters) // parent-level flows executing in cluster j
		for i := 0; i < clusters; i++ {
			root := m.AddVar("root", 0)
			dem := float64(rng.Intn(4) * 25) // often zero: degenerate vertices
			total += dem
			out.demands = append(out.demands, m.NumConstraints())
			m.MustConstraint("demand", []Term{{root, 1}}, EQ, dem)
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
					v := m.AddVar("x", cost)
					terms = append(terms, Term{v, 1})
					next[j] = append(next[j], v)
					flows[d][j] = append(flows[d][j], flow{v, k})
				}
				for _, p := range into[i] {
					terms = append(terms, Term{p, -count})
				}
				m.MustConstraint("conserve", terms, EQ, 0)
			}
			into = next
		}
	}
	for d := 0; d < depth; d++ {
		for j := 0; j < clusters; j++ {
			load := m.AddVar("load", 0)
			linkTerms := []Term{{load, -1}}
			for _, f := range flows[d][j] {
				linkTerms = append(linkTerms, Term{f.v, []float64{1, 1, 0.5, 2}[rng.Intn(4)]})
			}
			out.links = append(out.links, [2]int{m.NumConstraints(), int(flows[d][j][0].v)})
			m.MustConstraint("loadlink", linkTerms, EQ, 0)
			segTerms := []Term{{load, -1}}
			for s, width := range []float64{total / 4, total / 4, 8 * total} {
				v := m.AddVar("seg", float64(1+2*s)*0.001)
				m.SetUpper(v, width+1)
				out.segs = append(out.segs, v)
				segTerms = append(segTerms, Term{v, 1})
			}
			if robust {
				z := m.AddVar("z", 0)
				segTerms = append(segTerms, Term{z, -1})
				for k := 0; k < classes; k++ {
					q := m.AddVar("q", 0)
					segTerms = append(segTerms, Term{q, -1})
					rob := []Term{{z, 1}, {q, 1}}
					for _, f := range flows[d][j] {
						if f.class == k {
							rob = append(rob, Term{f.v, -0.25})
						}
					}
					m.MustConstraint("rob", rob, GE, 0)
				}
			}
			m.MustConstraint("segments", segTerms, EQ, 0)
		}
	}
	return out
}

// churn moves the model the way a control tick does: demand right-hand
// sides always — by a few percent, which the last basis survives, or by
// the benchmark's ×1.15 / ×0.9, which it often does not — and now and
// then segment costs and widths, a load-link coefficient, or a
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
		r.m.SetUpper(v, r.m.vars[v].upper*(0.8+0.4*rng.Float64()))
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
			for step := 0; step < 4; step++ {
				// Small drift keeps the basis feasible; large drift leaves it
				// infeasible, and SolveFrom must fall back to a cold start.
				scale := 0.05
				if (trial+step)%3 == 0 {
					scale = 5
				}
				perturbRHS(t, m, rng, scale)
				var basis []int
				if sol != nil && sol.Status == Optimal {
					basis = sol.Basis
				}
				sol = w.solveFrom(fmt.Sprintf("trial %d step %d", trial, step), m, basis)
			}
		}
		if w.warm == 0 || w.fell == 0 {
			t.Fatalf("%d warm solves, %d cold fallbacks: the chains must take both paths", w.warm, w.fell)
		}
	})

	t.Run("routing-shaped chains", func(t *testing.T) {
		w.t = t
		rng := rand.New(rand.NewSource(59))
		pivots, warm, fell := w.pivots, w.warm, w.fell
		for trial := 0; trial < 40; trial++ {
			r := randomRoutingLP(rng)
			sol := w.solveFrom(fmt.Sprintf("routing %d cold", trial), r.m, nil)
			for step := 0; step < 6; step++ {
				r.churn(t, rng)
				var basis []int
				if sol != nil && sol.Status == Optimal {
					basis = sol.Basis
				}
				sol = w.solveFrom(fmt.Sprintf("routing %d step %d", trial, step), r.m, basis)
			}
		}
		t.Logf("%d pivots compared, %d warm solves, %d cold fallbacks", w.pivots-pivots, w.warm-warm, w.fell-fell)
		if w.warm == warm || w.fell == fell {
			t.Fatal("the chains must take both the warm path and the cold fallback")
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
			x := m.AddVar("x", -1)
			y := m.AddVar("y", -1)
			rows := 3 + rng.Intn(6)
			var holders []int32
			for i := 0; i < rows; i++ {
				terms := []Term{{y, 1}}
				if rng.Intn(4) > 0 {
					terms = append(terms, Term{x, 1})
					holders = append(holders, int32(i))
				}
				m.MustConstraint("c", terms, LE, 1+float64(rng.Intn(5))*0.6e-9)
			}
			dense, err := newDenseSolver().newTableau(m)
			if err != nil {
				t.Fatal(err)
			}
			var sparse tableau
			if err := sparse.load(m); err != nil {
				t.Fatal(err)
			}
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

	// Dantzig's rule cycles on Beale's LP until the degenerate stretch
	// outlasts 2·(rows+1) pivots and hands the entering choice to Bland's
	// rule: the tournament's descent to its leftmost eligible column. No
	// other case here stays degenerate that long.
	t.Run("Beale's cycling LP", func(t *testing.T) {
		w.t = t
		m := bealeLP()
		pivots := w.pivots
		if sol := w.solveFrom("beale", m, nil); sol.Status != Optimal {
			t.Fatalf("status %v, want optimal", sol.Status)
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
		x := m.AddVar("x", 1)
		y := m.AddVar("y", 1)
		m.MustConstraint("lo", []Term{{x, 1}, {y, 1}}, GE, 10)
		m.MustConstraint("hi", []Term{{x, 1}, {y, 2}}, LE, 5)
		if sol := w.solveFrom("infeasible", m, nil); sol.Status != Infeasible {
			t.Fatalf("status %v, want infeasible", sol.Status)
		}

		m = NewModel()
		x = m.AddVar("x", -1)
		y = m.AddVar("y", 0)
		m.MustConstraint("c", []Term{{x, 1}, {y, -1}}, LE, 4)
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
		if _, err := w.sparse.Solve(randomRoutingLP(rng).m); !errors.Is(err, ErrIterLimit) {
			t.Fatalf("zero budget: error %v, want ErrIterLimit", err)
		}
		restore()
	})

	t.Run("explicit zero term", func(t *testing.T) {
		w.t = t
		m := NewModel()
		x := m.AddVar("x", 1)
		y := m.AddVar("y", 2)
		z := m.AddVar("z", 3)
		m.SetUpper(y, 8)
		m.MustConstraint("c", []Term{{x, 1}, {y, 4}, {z, 1}}, GE, 10)
		m.MustConstraint("d", []Term{{x, 1}, {y, -1}}, LE, 3)
		sol := w.solveFrom("before zeroing", m, nil)
		// x stays a term of c, with coefficient 0: the dense tableau writes
		// the 0, the sparse one must not store it.
		if err := m.SetCoef(0, x, 0); err != nil {
			t.Fatal(err)
		}
		if len(m.cons[0].terms) != 3 {
			t.Fatalf("SetCoef(…, 0) removed the term: %v", m.cons[0].terms)
		}
		w.solveFrom("zeroed warm", m, sol.Basis)
		w.solveFrom("zeroed cold", m, nil)
		if err := w.sparse.t.load(m); err != nil {
			t.Fatal(err)
		}
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

// TestWarmSolveAllocatesOnlySolution pins the steady state: once a Solver
// has grown to a model, a warm re-solve allocates its Solution (the
// struct, X and Basis) and nothing else.
func TestWarmSolveAllocatesOnlySolution(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	r := randomRoutingLP(rng)
	s := NewSolver()
	base, err := s.Solve(r.m)
	if err != nil || base.Status != Optimal {
		t.Fatalf("base solve: %v, %+v", err, base)
	}
	// Alternate between two right-hand sides, each solved from the other's
	// basis, so that every run installs a basis and then pivots.
	var rhs [2][]float64
	for _, con := range r.demands {
		d := r.m.cons[con].rhs
		rhs[0] = append(rhs[0], d*1.02)
		rhs[1] = append(rhs[1], d*0.98)
	}
	run, pivots, cold := 0, 0, 0
	s.t.trace = func(int, int) { pivots++ }
	basis := base.Basis
	solve := func() {
		for n, con := range r.demands {
			if err := r.m.SetRHS(con, rhs[run%2][n]); err != nil {
				t.Fatal(err)
			}
		}
		run++
		sol, err := s.SolveFrom(r.m, basis)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("warm solve: %v, %+v", err, sol)
		}
		if !sol.Warm {
			cold++
		}
		basis = sol.Basis
	}
	solve()
	solve()
	if allocs := testing.AllocsPerRun(20, solve); allocs != 3 { //slate:nolint floatcmp -- AllocsPerRun returns an integer-valued count
		t.Errorf("a warm solve on a grown Solver allocates %v times, want 3 (Solution, X, Basis)", allocs)
	}
	if pivots == 0 || cold != 0 {
		t.Fatalf("%d pivots, %d cold solves over %d runs: the pin must measure warm solves that pivot", pivots, cold, run)
	}
}
