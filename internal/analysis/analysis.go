// Package analysis is a small, self-contained static-analysis framework
// for the SLATE codebase, built only on the standard library's go/ast,
// go/parser, go/types and go/build (no golang.org/x/tools — the repo is
// offline and dependency-free).
//
// SLATE's correctness rests on invariants the Go compiler cannot see:
// per-class routing weights must stay a valid distribution, the control
// loop must never hold a lock across a blocking telemetry/RPC call, and
// the simulator must stay deterministic (the paper's Fig. 4/5
// comparisons against Waterfall are only meaningful when runs are
// reproducible). The analyzers in this package mechanically enforce
// those invariants on every build; cmd/slate-lint is the driver.
//
// # Adding an analyzer
//
// Write a `var Myrule = &Analyzer{Name: ..., Doc: ..., Run: func(*Pass)}`
// in a new file, append it to All in registry.go, and add a fixture
// package under testdata/lint/myrule/ with `// want "regexp"`
// expectations, checked by a TestMyruleFixture in analysis_test.go
// through CheckFixture. The Pass gives each analyzer every unit of the
// run, fully type-checked, so rules can resolve callees precisely (e.g.
// distinguish (*net/http.Client).Post from a local method named Post)
// instead of string-matching identifiers; interprocedural rules ask it
// for the whole-program call graph.
//
// # Suppressing a finding
//
// A deliberate exception is annotated in the source:
//
//	x := weight == 0 //slate:nolint floatcmp -- zero is the unset sentinel
//
// The directive suppresses the named analyzers (or all, when no names
// are given). At the end of a code line it covers that line only; alone
// on its line it covers the line below. The `-- reason` tail is
// required by convention: an exception without a recorded reason is a
// future bug.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one lint rule.
type Analyzer struct {
	// Name identifies the rule in diagnostics ("[name] message") and in
	// //slate:nolint directives.
	Name string
	// Doc is a one-paragraph description: what the rule flags and which
	// SLATE invariant it protects.
	Doc string
	// Run inspects the program and reports findings via pass.Reportf.
	Run func(*Pass)
}

// Diagnostic is one finding, at a module-relative position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass hands the loaded program to one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Prog.Loader.position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Prog.Loader.Fset.Position(pos).Filename, "_test.go")
}

// calleeFunc resolves the static callee of a call expression, or nil
// for calls through function values, conversions and builtins. For
// methods the result's FullName() is of the form
// "(*net/http.Client).Post"; for package functions "net/http.Get".
// Every analyzer resolves calls here.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// namedTypeName renders a named type (or a pointer to one) as
// "pkg.Type", and anything else as "".
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	if n.Obj().Pkg() != nil {
		return n.Obj().Pkg().Name() + "." + n.Obj().Name()
	}
	return n.Obj().Name()
}

// ExprString renders a (small) expression for diagnostics, e.g. the
// receiver of a Lock call.
func ExprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return ExprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return ExprString(e.X)
	case *ast.StarExpr:
		return "*" + ExprString(e.X)
	case *ast.IndexExpr:
		return ExprString(e.X) + "[...]"
	case *ast.CallExpr:
		return ExprString(e.Fun) + "(...)"
	default:
		return "expr"
	}
}
