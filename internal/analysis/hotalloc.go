package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Hotalloc is the static counterpart to the AllocsPerRun pins: every
// function annotated //slate:hot — the sim kernel event loop,
// routing.Local/Pick, telemetry ingest, the obs warm .With() path —
// and everything it transitively calls must be allocation-free. The
// call graph computes the hot closure (stopping at //slate:cold
// declared slow paths); this analyzer then flags allocation sites in
// it: make/new, escaping composite literals, growing append, stored
// closures, interface boxing at call boundaries, fmt and string
// concatenation.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc: "functions reachable from //slate:hot must not allocate; " +
		"a regression here silently melts the zero-alloc guarantees " +
		"the DES kernel and data-plane lookup are benchmarked on",
	Run: runHotalloc,
}

// allocatingStdlib lists stdlib functions that always allocate, keyed
// by FullName. fmt is handled as a whole package; this covers the rest
// of the usual suspects.
var allocatingStdlib = map[string]string{
	"errors.New":        "errors.New allocates",
	"strings.Join":      "strings.Join builds a new string",
	"strings.Repeat":    "strings.Repeat builds a new string",
	"strings.Split":     "strings.Split allocates a slice",
	"strings.Fields":    "strings.Fields allocates a slice",
	"strconv.Itoa":      "strconv.Itoa allocates a string",
	"strconv.Quote":     "strconv.Quote allocates a string",
	"strconv.FormatInt": "strconv.FormatInt allocates a string",
	"sort.Slice":        "sort.Slice boxes its argument into an interface",
	"sort.SliceStable":  "sort.SliceStable boxes its argument into an interface",
	"sort.Sort":         "sort.Sort takes an interface (receiver escapes)",
}

func runHotalloc(pass *Pass) {
	g := pass.Prog.Graph()
	roots := g.Roots("hot")
	reached := g.Reachable(roots)

	for _, id := range g.NodeIDs() {
		n := g.Nodes[id]
		if _, hot := reached[n]; !hot || n.InTest || n.Body() == nil {
			continue
		}
		root := WitnessRoot(reached, n)
		ctx := "in //slate:hot function " + n.String()
		if root != n {
			ctx = "in " + n.String() + " (hot via //slate:hot " + root.String() + ")"
		}
		checkAllocs(pass, n, ctx)
	}
}

// checkAllocs walks one hot function body and reports allocation
// sites. Exemptions, each earned by a real pattern in the tree:
//
//   - allocations inside panic(...) arguments: the panic path is
//     already catastrophic, its cost is irrelevant (sim.At, obs key);
//   - self-append into a persistent location (x.f = append(x.f, ...)
//     or pkgVar = append(pkgVar, ...)): the amortized-growth idiom
//     behind the kernel's event heap and free list — AllocsPerRun
//     still pins the steady state at zero;
//   - a capturing closure passed directly as an argument to a stdlib
//     call (sort.Search's comparator): it does not escape and stays
//     on the stack.
func checkAllocs(pass *Pass, n *Node, ctx string) {
	info := n.Unit.Info
	var panicDepth int
	exemptLits := collectExemptLits(info, n.Body())

	var walk func(ast.Node) bool
	walk = func(node ast.Node) bool {
		switch e := node.(type) {
		case *ast.FuncLit:
			if e != n.Lit {
				// The literal's body is its own node, checked separately
				// if reachable — but creating the closure here costs a
				// context allocation when it captures and escapes.
				if panicDepth == 0 && !exemptLits[e] && captures(info, e) {
					pass.Reportf(e.Pos(), "capturing closure escapes and allocates its context %s", ctx)
				}
				return false
			}
		case *ast.AssignStmt:
			if target, call := selfAppend(e); call != nil && persistentTarget(info, target) {
				// Walk the appended values (they may allocate) but skip
				// the append itself.
				for _, a := range call.Args[1:] {
					ast.Inspect(a, walk)
				}
				for _, r := range e.Rhs {
					if r != ast.Expr(call) {
						ast.Inspect(r, walk)
					}
				}
				return false
			}
		case *ast.CallExpr:
			if isPanicCall(info, e) {
				panicDepth++
				for _, a := range e.Args {
					ast.Inspect(a, walk)
				}
				panicDepth--
				return false
			}
			if panicDepth == 0 {
				checkCall(pass, info, e, ctx)
			}
		case *ast.CompositeLit:
			if panicDepth == 0 {
				checkComposite(pass, info, e, ctx)
			}
		case *ast.UnaryExpr:
			if e.Op == token.AND && panicDepth == 0 {
				if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
					pass.Reportf(e.Pos(), "&composite literal allocates %s", ctx)
					// The literal itself is subsumed by this finding.
					for _, el := range ast.Unparen(e.X).(*ast.CompositeLit).Elts {
						ast.Inspect(el, walk)
					}
					return false
				}
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD && panicDepth == 0 && isString(info, e) && !isConstExpr(info, e) {
				pass.Reportf(e.Pos(), "string concatenation allocates %s", ctx)
			}
		}
		return true
	}
	ast.Inspect(n.Body(), walk)
}

// checkCall flags allocating calls: builtins, fmt, known stdlib, and
// interface boxing of non-pointer-shaped arguments.
func checkCall(pass *Pass, info *types.Info, call *ast.CallExpr, ctx string) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Reportf(call.Pos(), "make allocates %s", ctx)
				return
			case "new":
				pass.Reportf(call.Pos(), "new allocates %s", ctx)
				return
			case "append":
				pass.Reportf(call.Pos(), "append may grow its backing array %s", ctx)
				return
			}
		}
	}
	fn := calleeFunc(info, call)
	if fn != nil && fn.Pkg() != nil {
		full := fn.FullName()
		if fn.Pkg().Path() == "fmt" {
			pass.Reportf(call.Pos(), "%s formats through interfaces and allocates %s", full, ctx)
			return
		}
		if msg, ok := allocatingStdlib[full]; ok {
			pass.Reportf(call.Pos(), "%s %s", msg, ctx)
			return
		}
	}
	checkBoxing(pass, info, call, fn, ctx)
}

// collectExemptLits marks function literals that do not pay a closure
// allocation even when they capture: literals invoked immediately
// (the compiler inlines the frame) and literals passed directly as
// arguments to stdlib calls (sort.Search's comparator does not escape
// — the dynamic AllocsPerRun pins back this up).
func collectExemptLits(info *types.Info, body *ast.BlockStmt) map[*ast.FuncLit]bool {
	exempt := make(map[*ast.FuncLit]bool)
	ast.Inspect(body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			exempt[lit] = true
		}
		fn := calleeFunc(info, call)
		if fn != nil && fn.Pkg() != nil && !strings.Contains(fn.Pkg().Path(), ".") {
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					exempt[lit] = true
				}
			}
		}
		return true
	})
	return exempt
}

// checkBoxing flags arguments whose static type is value-shaped
// (basic, string, struct, array, slice) passed to interface
// parameters: the conversion heap-allocates the value. Pointer-shaped
// kinds (pointers, channels, maps, funcs) fit in the interface word.
func checkBoxing(pass *Pass, info *types.Info, call *ast.CallExpr, fn *types.Func, ctx string) {
	sigType := info.TypeOf(call.Fun)
	sig, ok := sigType.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
			continue // pointer-shaped: no allocation
		case *types.Basic:
			if at.Underlying().(*types.Basic).Kind() == types.UntypedNil {
				continue
			}
		}
		name := "callee"
		if fn != nil {
			name = fn.FullName()
		}
		pass.Reportf(arg.Pos(), "passing %s to interface parameter of %s boxes it on the heap %s",
			types.TypeString(at, nil), name, ctx)
	}
}

// checkComposite flags map and slice literals (always heap for maps,
// escaping for slices in practice). Value struct literals are left
// alone: Key{a, b, c} as a map index or local is stack-allocated.
func checkComposite(pass *Pass, info *types.Info, lit *ast.CompositeLit, ctx string) {
	t := info.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		pass.Reportf(lit.Pos(), "map literal allocates %s", ctx)
	case *types.Slice:
		pass.Reportf(lit.Pos(), "slice literal allocates %s", ctx)
	}
}

// selfAppend matches `x = append(x, ...)` (single-assign) and returns
// the target expression and the append call.
func selfAppend(as *ast.AssignStmt) (ast.Expr, *ast.CallExpr) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 || as.Tok != token.ASSIGN {
		return nil, nil
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return nil, nil
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fun.Name != "append" {
		return nil, nil
	}
	if ExprString(as.Lhs[0]) != ExprString(call.Args[0]) {
		return nil, nil
	}
	return as.Lhs[0], call
}

// persistentTarget reports whether expr denotes a location that
// outlives the call: a field selector (k.heap) or a package-level
// variable. Appends into those amortize; appends into locals grow a
// fresh backing array per call.
func persistentTarget(info *types.Info, expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.IndexExpr:
		return persistentTarget(info, e.X)
	case *ast.Ident:
		obj := info.ObjectOf(e)
		if v, ok := obj.(*types.Var); ok {
			return v.Parent() == v.Pkg().Scope() // package-level var
		}
	}
	return false
}

func isPanicCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

func isString(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

// captures reports whether lit references any identifier declared
// outside its own body (a free variable, forcing a closure context).
func captures(info *types.Info, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		obj := info.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level vars need no closure context
		}
		if v.Pos().IsValid() && (v.Pos() < lit.Pos() || v.Pos() > lit.End()) {
			found = true
		}
		return true
	})
	return found
}
