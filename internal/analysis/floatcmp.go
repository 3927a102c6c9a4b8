package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Floatcmp flags == and != between float-typed expressions. SLATE's
// optimizer (internal/lp), queue models and routing-weight plumbing all
// move float64s through long arithmetic chains, where exact equality is
// a latent bug: 0.1+0.2 != 0.3, a routing distribution that "sums to 1"
// rarely compares equal to 1.0, and an LP objective reconstructed from
// a solution vector differs from the solver's in the last ulps. Compare
// with an epsilon (math.Abs(a-b) <= eps) instead; genuinely exact
// sentinel checks (weight == 0 meaning "unset") are annotated
// //slate:nolint floatcmp with a reason.
var Floatcmp = &Analyzer{
	Name: "floatcmp",
	Doc:  "flags ==/!= on floating-point expressions; use an epsilon comparison",
	Run:  runFloatcmp,
}

func runFloatcmp(pass *Pass) {
	for _, u := range pass.Prog.Units {
		for _, f := range u.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
					return true
				}
				tx, ty := u.Info.Types[be.X], u.Info.Types[be.Y]
				// Two constants fold at compile time; exact comparison is fine.
				if tx.Value != nil && ty.Value != nil {
					return true
				}
				if isFloat(tx.Type) || isFloat(ty.Type) {
					pass.Reportf(be.OpPos, "%s on float operands is exact; use an epsilon comparison (math.Abs(a-b) <= eps)", be.Op)
				}
				return true
			})
		}
	}
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
