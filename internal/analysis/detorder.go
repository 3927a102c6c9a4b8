package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Detorder guards the determinism the differential tests and the PR 5
// degenerate-vertex fix rest on: in determinism-critical packages, a
// `range` over a map must not feed ordered output (writers, wire
// encoding, fingerprints), LP column construction, an order-sensitive
// float reduction, or the simulation kernel's schedule, unless the keys
// are collected and sorted first. Go randomizes map iteration per run,
// so any such sink makes two runs of the same scenario diverge.
var Detorder = &Analyzer{
	Name: "detorder",
	Doc: "flags map iteration feeding ordered sinks in " +
		"determinism-critical packages (sim, simrun, core, routing, telemetry, " +
		"controlplane, experiments, forecast); collect keys and sort them first",
	Run: runDetorder,
}

// detorderCritical lists the module subtrees where iteration order is
// load-bearing: the simulator and optimizer (reproducible runs, LP
// column order), the data plane, telemetry fingerprinting/merging, the
// control plane's wire encoding, and experiment report emission.
var detorderCritical = []string{
	"/internal/sim",
	"/internal/simrun",
	"/internal/core",
	"/internal/routing",
	"/internal/telemetry",
	"/internal/controlplane",
	"/internal/experiments",
	"/internal/forecast",
}

func runDetorder(pass *Pass) {
	for _, u := range pass.Prog.Units {
		if !detorderApplies(pass.Prog.Loader.ModulePath, u.ImportPath) {
			continue
		}
		for _, f := range u.Files {
			if len(f.Decls) > 0 && pass.InTestFile(f.Pos()) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkFuncOrder(pass, u.Info, fd.Body)
			}
		}
	}
}

func detorderApplies(modulePath, importPath string) bool {
	rel, ok := strings.CutPrefix(importPath, modulePath)
	if !ok {
		rel = importPath
	}
	for _, p := range detorderCritical {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	// Fixture packages opt in by path so the golden tests exercise the
	// rule outside the real module layout.
	return strings.Contains(importPath, "testdata/lint/detorder")
}

// checkFuncOrder analyzes one function body (literals included: they
// share the body's sort-call scope, which is what matters for the
// collect-then-sort idiom).
func checkFuncOrder(pass *Pass, info *types.Info, body *ast.BlockStmt) {
	sorts := collectSortCalls(info, body)
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if t := info.TypeOf(rs.X); t == nil || !isMapType(t) {
			return true
		}
		checkMapRange(pass, info, rs, sorts)
		return true
	})
}

// sortCall records one call to sort.*/slices.* (or a .Sort() method)
// with the identifiers appearing in its arguments and receiver.
type sortCall struct {
	pos    token.Pos
	idents map[string]bool
}

func collectSortCalls(info *types.Info, body *ast.BlockStmt) []sortCall {
	var out []sortCall
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		isSort := false
		if fn != nil && fn.Pkg() != nil {
			p := fn.Pkg().Path()
			isSort = p == "sort" || p == "slices"
		}
		if !isSort {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Sort" {
				isSort = true
			}
		}
		if !isSort {
			return true
		}
		sc := sortCall{pos: call.Pos(), idents: make(map[string]bool)}
		ast.Inspect(call, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				sc.idents[id.Name] = true
			}
			return true
		})
		out = append(out, sc)
		return true
	})
	return out
}

// checkMapRange walks one map-range body for order-sensitive sinks.
func checkMapRange(pass *Pass, info *types.Info, rs *ast.RangeStmt, sorts []sortCall) {
	mapStr := ExprString(rs.X)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.AssignStmt:
			checkRangeAssign(pass, info, rs, e, mapStr, sorts)
		case *ast.CallExpr:
			checkRangeCall(pass, info, e, mapStr)
		}
		return true
	})
}

// checkRangeAssign flags two sink shapes inside a map range:
//
//  1. append to a local identifier, unless that identifier is later
//     passed to a sort call (the canonical collect-then-sort pattern);
//     appends into selector or index targets are left alone — the
//     suppression can't be tracked, and flagging them drowns the
//     signal in false positives.
//  2. compound float/string accumulation (+=, -=, *=) into a location
//     that outlives the loop: float addition is not associative and
//     string building is ordered, so the result depends on iteration
//     order.
func checkRangeAssign(pass *Pass, info *types.Info, rs *ast.RangeStmt, as *ast.AssignStmt, mapStr string, sorts []sortCall) {
	switch as.Tok {
	case token.ASSIGN:
		if target, call := selfAppend(as); call != nil {
			id, ok := ast.Unparen(target).(*ast.Ident)
			if !ok {
				return
			}
			for _, sc := range sorts {
				if sc.pos > rs.Pos() && sc.idents[id.Name] {
					return // collected then sorted: the blessed idiom
				}
			}
			pass.Reportf(as.Pos(),
				"append to %s inside range over map %s produces random order; collect keys, sort, then iterate",
				id.Name, mapStr)
		}
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN:
		if len(as.Lhs) != 1 {
			return
		}
		lhs := as.Lhs[0]
		t := info.TypeOf(lhs)
		if t == nil {
			return
		}
		b, ok := t.Underlying().(*types.Basic)
		if !ok || b.Info()&(types.IsFloat|types.IsString) == 0 {
			return
		}
		if !outlivesLoop(info, rs, lhs) {
			return
		}
		kind := "float accumulation is not associative"
		if b.Info()&types.IsString != 0 {
			kind = "string building is ordered"
		}
		pass.Reportf(as.Pos(),
			"order-dependent accumulation (%s) into %s inside range over map %s: %s; iterate sorted keys",
			as.Tok, ExprString(lhs), mapStr, kind)
	}
}

// outlivesLoop reports whether lhs denotes storage that exists outside
// the range statement: a selector/index expression, or an identifier
// declared before the loop.
func outlivesLoop(info *types.Info, rs *ast.RangeStmt, lhs ast.Expr) bool {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	case *ast.Ident:
		obj := info.ObjectOf(e)
		if obj == nil {
			return false
		}
		return obj.Pos() < rs.Pos() || obj.Pos() > rs.End()
	}
	return false
}

// checkRangeCall flags ordered-output sinks: fmt.Fprint*, the
// io.Writer/hash.Hash Write-method family, and event scheduling on a
// sim.Kernel or sim.Shard. Anything written inside a map range lands on
// the wire, in a file, or in a fingerprint in random order; events
// scheduled there get their same-instant tie-break sequence in random
// order (the autoscaler's ScaleEvents bug).
func checkRangeCall(pass *Pass, info *types.Info, call *ast.CallExpr, mapStr string) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Fprint") {
		pass.Reportf(call.Pos(),
			"fmt.%s inside range over map %s emits in random order; sort the keys first", fn.Name(), mapStr)
		return
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := namedTypeName(sig.Recv().Type())
		if recv == "" {
			recv = types.TypeString(sig.Recv().Type(), nil) // an unnamed interface's method
		}
		switch fn.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			pass.Reportf(call.Pos(),
				"%s.%s inside range over map %s writes in random order; sort the keys first",
				recv, fn.Name(), mapStr)
		case "At", "After", "Send", "Post", "Reserve", "PostReserved":
			if recv == "sim.Kernel" || recv == "sim.Shard" {
				pass.Reportf(call.Pos(),
					"%s.%s inside range over map %s schedules events in random order, and same-instant events fire in schedule order; iterate sorted keys",
					recv, fn.Name(), mapStr)
			}
		}
	}
}

func isMapType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}
