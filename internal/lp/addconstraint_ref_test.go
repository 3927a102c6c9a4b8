package lp

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refMergeTerms is the row AddConstraint kept before it sorted with
// slices.SortFunc, kept verbatim: a copy sorted by sort.Slice, duplicate
// mentions summed in sorted order, exactly-cancelled terms dropped.
func refMergeTerms(terms []Term) []Term {
	out := make([]Term, len(terms))
	copy(out, terms)
	sort.Slice(out, func(i, j int) bool { return out[i].Var < out[j].Var })
	k := 0
	for i := 0; i < len(out); {
		v, c := out[i].Var, out[i].Coef
		for i++; i < len(out) && out[i].Var == v; i++ {
			c += out[i].Coef
		}
		if c != 0 { //slate:nolint floatcmp -- sparsity: drop exactly-cancelled terms only
			out[k] = Term{Var: v, Coef: c}
			k++
		}
	}
	return out[:k]
}

// randomTerms draws a term list over nVars variables with the cases a
// merge can get wrong: a variable mentioned many times, with
// coefficients of mixed magnitude whose sum depends on the order they
// are added in; mentions that cancel exactly; and zero coefficients.
func randomTerms(rng *rand.Rand, nVars int) []Term {
	terms := make([]Term, rng.Intn(200))
	for i := range terms {
		v := Var(rng.Intn(nVars))
		var c float64
		switch rng.Intn(6) {
		case 0:
			c = 0
		case 1:
			c = float64(rng.Intn(5) - 2)
		case 2:
			c = rng.NormFloat64() * 1e16
		default:
			c = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
		}
		terms[i] = Term{Var: v, Coef: c}
		if i > 0 && rng.Intn(8) == 0 { // cancel an earlier mention exactly
			j := rng.Intn(i)
			terms[i] = Term{Var: terms[j].Var, Coef: -terms[j].Coef}
		}
	}
	return terms
}

// TestAddConstraintMatchesSortSlice holds the row AddConstraint keeps to
// the sort.Slice merge it replaced, term for term and bit for bit, and
// checks that the caller's terms are left as they were.
func TestAddConstraintMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 3000; trial++ {
		nVars := 1 + rng.Intn(60)
		m := NewModel()
		for range nVars {
			m.AddVar(0)
		}
		terms := randomTerms(rng, nVars)
		orig := slices.Clone(terms)
		if err := m.AddConstraint(terms, 1); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(terms, orig) {
			t.Fatalf("trial %d: AddConstraint changed its caller's terms", trial)
		}
		got, want := m.cons[0].terms, refMergeTerms(orig)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d terms kept, the sort.Slice merge keeps %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].Var != want[i].Var || math.Float64bits(got[i].Coef) != math.Float64bits(want[i].Coef) {
				t.Fatalf("trial %d, term %d: %v, the sort.Slice merge gives %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestErrorsNameByIndex: an lp error names its row and column by index,
// and Named puts the caller's names in their place, leaving the rest of
// the text and the indices as they were.
func TestErrorsNameByIndex(t *testing.T) {
	m := NewModel()
	a := m.AddVar(0)
	b := m.AddVar(0)
	m.MustConstraint([]Term{{a, 1}, {b, 1}}, 4)
	// A failed AddConstraint is about the row it would have added.
	row := func(i int) string { return []string{"cap", "next"}[i] }
	col := func(i int) string { return []string{"a", "b"}[i] }
	for _, c := range []struct {
		err             error
		byIndex, byName string
	}{
		{m.SetCoef(0, b, math.Inf(1)),
			`lp: SetCoef: constraint "#0" given non-finite coefficient +Inf for #1`,
			`lp: SetCoef: constraint "cap" given non-finite coefficient +Inf for b`},
		{m.SetRHS(0, math.NaN()),
			`lp: SetRHS: constraint "#0" given non-finite rhs NaN`,
			`lp: SetRHS: constraint "cap" given non-finite rhs NaN`},
		{m.SetRHS(0, -1),
			`lp: SetRHS: constraint "#0" given negative rhs -1`,
			`lp: SetRHS: constraint "cap" given negative rhs -1`},
		{m.AddConstraint([]Term{{a, math.NaN()}}, 0),
			`lp: constraint "#1" has non-finite coefficient for #0`,
			`lp: constraint "next" has non-finite coefficient for a`},
		{m.AddConstraint([]Term{{a, 1}}, -2),
			`lp: constraint "#1" has negative rhs -2`,
			`lp: constraint "next" has negative rhs -2`},
		{m.SetUpper(b, math.NaN()),
			`lp: SetUpper: variable #1 given upper bound NaN outside [0, +Inf]`,
			`lp: SetUpper: variable b given upper bound NaN outside [0, +Inf]`},
		{m.CheckFeasible([]float64{3, 3}, 0),
			`lp: constraint #0 violated: 6 != 4`,
			`lp: constraint cap violated: 6 != 4`},
		{m.CheckFeasible([]float64{-1, 0}, 0),
			`lp: variable #0 = -1 violates x >= 0`,
			`lp: variable a = -1 violates x >= 0`},
	} {
		le, ok := c.err.(*Error)
		if !ok {
			t.Fatalf("%v: not an *Error", c.err)
		}
		if got := le.Error(); got != c.byIndex {
			t.Errorf("error reads %q, want %q", got, c.byIndex)
		}
		named := le.Named(row, col)
		if got := named.Error(); got != c.byName {
			t.Errorf("named error reads %q, want %q", got, c.byName)
		}
		if named.Row != le.Row || named.Col != le.Col || le.Error() != c.byIndex {
			t.Errorf("Named changed the error it was called on, or its indices")
		}
	}
}
