package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Program is what every analyzer sees: each type-checked unit the
// driver loaded, and the call graph over them. Interprocedural
// analyzers (hotalloc, lockorder) ask for the graph, because their
// facts span package boundaries — a `//slate:hot` annotation on
// routing.Local must constrain callees in other packages.
type Program struct {
	Loader *Loader
	Units  []*Unit

	graph *CallGraph
}

// Graph returns the call graph over the units, built the first time an
// analyzer asks, so a run of per-unit analyzers builds none.
func (p *Program) Graph() *CallGraph {
	if p.graph == nil {
		p.graph = buildCallGraph(p)
	}
	return p.graph
}

// FuncID names one function in the call graph. Declared functions use
// their types.Func FullName ("pkg.F", "(*pkg.T).M"); function literals
// are keyed by their lexical position inside the enclosing function
// ("pkg.F$1", "pkg.F$2", ... in preorder).
type FuncID string

// Node is one function (declared or literal) in the call graph.
type Node struct {
	ID   FuncID
	Func *types.Func // nil for function literals
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	Unit *Unit
	Pos  token.Pos

	// Hot marks a `//slate:hot` directive in the doc comment: this
	// function and everything it transitively calls must be
	// allocation-free. Cold marks `//slate:cold`: an explicit slow path
	// (arena growth, intern miss) that stops hot propagation.
	Hot  bool
	Cold bool
	// InTest is set for functions declared in _test.go files.
	InTest bool

	Out []Edge
}

// Body returns the function's body block (nil for bodyless decls, e.g.
// assembly stubs).
func (n *Node) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	if n.Lit != nil {
		return n.Lit.Body
	}
	return nil
}

// String returns a compact human name: the FullName without the module
// path prefix.
func (n *Node) String() string {
	s := string(n.ID)
	if n.Unit != nil {
		s = strings.ReplaceAll(s, modulePrefixOf(n.Unit.ImportPath)+"/", "")
	}
	return s
}

func modulePrefixOf(importPath string) string {
	// The module path is everything up to /internal/, /cmd/, or
	// /testdata/ — good enough for display purposes.
	for _, marker := range []string{"/internal/", "/cmd/", "/testdata/"} {
		if i := strings.Index(importPath, marker); i >= 0 {
			return importPath[:i]
		}
	}
	return ""
}

// EdgeKind classifies how a call-graph edge was discovered.
type EdgeKind uint8

const (
	// EdgeCall is a direct static call: f() or x.M() with a concrete
	// receiver, or an immediately invoked function literal.
	EdgeCall EdgeKind = iota
	// EdgeRef is a function or method value referenced without being
	// called: passed as a callback, assigned, or a closure being
	// created. The referent is assumed callable from the referencer.
	EdgeRef
	// EdgeIface is an interface dispatch edge: a call through an
	// interface method, resolved to every module type whose method set
	// satisfies the interface (a method-set approximation).
	EdgeIface
	// EdgeGo is a direct call launched in a new goroutine. It
	// contributes to reachability but not to lock-order propagation:
	// the spawned function does not run under the caller's locks.
	EdgeGo
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeCall:
		return "call"
	case EdgeRef:
		return "ref"
	case EdgeIface:
		return "iface"
	case EdgeGo:
		return "go"
	}
	return "edge"
}

// Edge is one outgoing call-graph edge.
type Edge struct {
	Callee *Node
	Pos    token.Pos
	Kind   EdgeKind
}

// CallGraph is the static call graph over a Program: direct calls,
// function/method values, and a method-set approximation for interface
// dispatch. Stdlib callees have no source here and therefore no nodes;
// analyzers handle well-known stdlib functions by FullName instead.
type CallGraph struct {
	Nodes map[FuncID]*Node

	// sorted node IDs, for deterministic iteration.
	ids []FuncID
}

// NodeIDs returns every node ID in sorted order.
func (g *CallGraph) NodeIDs() []FuncID { return g.ids }

// Lookup resolves a types.Func (from any unit's type info) to its
// node, matching by FullName so the same function type-checked in two
// units (in-package and as a dependency) resolves identically.
func (g *CallGraph) Lookup(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.Nodes[FuncID(fn.FullName())]
}

// Roots returns the nodes carrying directive, in sorted order.
func (g *CallGraph) Roots(directive string) []*Node {
	var out []*Node
	for _, id := range g.ids {
		n := g.Nodes[id]
		if (directive == "hot" && n.Hot) || (directive == "cold" && n.Cold) {
			out = append(out, n)
		}
	}
	return out
}

// Reachable computes the set of nodes reachable from roots along call,
// ref, iface, and go edges. Nodes annotated //slate:cold are not
// entered: they are declared slow paths, excluded from the closure.
// The returned map carries, for every reached node, the edge by which
// it was first discovered (roots map to a zero Edge) — enough to
// reconstruct a witness path for diagnostics.
func (g *CallGraph) Reachable(roots []*Node) map[*Node]Edge {
	reached := make(map[*Node]Edge)
	var queue []*Node
	for _, r := range roots {
		if r == nil || r.Cold {
			continue
		}
		if _, ok := reached[r]; !ok {
			reached[r] = Edge{}
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			if e.Callee.Cold {
				continue
			}
			if _, ok := reached[e.Callee]; !ok {
				reached[e.Callee] = Edge{Callee: n, Pos: e.Pos, Kind: e.Kind}
				queue = append(queue, e.Callee)
			}
		}
	}
	return reached
}

// WitnessRoot walks the discovery edges recorded by Reachable back from
// n to the root that first reached it.
func WitnessRoot(reached map[*Node]Edge, n *Node) *Node {
	for {
		e, ok := reached[n]
		if !ok || e.Callee == nil {
			return n
		}
		n = e.Callee
	}
}

// buildCallGraph constructs the graph: one pass creating nodes for
// every FuncDecl and FuncLit, then one pass walking bodies to add
// edges.
func buildCallGraph(prog *Program) *CallGraph {
	g := &CallGraph{Nodes: make(map[FuncID]*Node)}

	// Interface dispatch needs the set of candidate concrete types.
	var namedTypes []*types.Named
	seenTypes := make(map[string]bool)

	for _, u := range prog.Units {
		if u.Pkg == nil {
			continue
		}
		scope := u.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				key := u.Pkg.Path() + "." + name
				if !seenTypes[key] {
					seenTypes[key] = true
					namedTypes = append(namedTypes, named)
				}
			}
		}
		for _, f := range u.Files {
			inTest := strings.HasSuffix(prog.Loader.Fset.Position(f.Pos()).Filename, "_test.go")
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, _ := u.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				id := FuncID(fn.FullName())
				if _, exists := g.Nodes[id]; exists {
					// Duplicate FullName (e.g. multiple init funcs): keep
					// the first; init functions are never call targets.
					continue
				}
				n := &Node{
					ID: id, Func: fn, Decl: fd, Unit: u,
					Pos: fd.Pos(), InTest: inTest,
				}
				n.Hot, n.Cold = funcDirectives(fd.Doc)
				g.Nodes[id] = n
			}
		}
	}

	// Second pass: walk each declared function's body, creating literal
	// nodes on the way and recording edges.
	for _, id := range sortedIDs(g.Nodes) {
		n := g.Nodes[id]
		if n.Decl == nil || n.Decl.Body == nil {
			continue
		}
		w := &edgeWalker{g: g, unit: n.Unit, namedTypes: namedTypes}
		w.walkBody(n, n.Decl.Body)
	}

	g.ids = sortedIDs(g.Nodes)
	return g
}

func sortedIDs(nodes map[FuncID]*Node) []FuncID {
	ids := make([]FuncID, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// funcDirectives scans a doc comment for //slate:hot and //slate:cold.
func funcDirectives(doc *ast.CommentGroup) (hot, cold bool) {
	if doc == nil {
		return false, false
	}
	for _, c := range doc.List {
		switch {
		case strings.HasPrefix(c.Text, "//slate:hot"):
			hot = true
		case strings.HasPrefix(c.Text, "//slate:cold"):
			cold = true
		}
	}
	return hot, cold
}

// edgeWalker adds edges for one declared function and its nested
// literals.
type edgeWalker struct {
	g          *CallGraph
	unit       *Unit
	namedTypes []*types.Named
	litSeq     int
	// consumed marks idents resolved as direct callees, so ref() does
	// not re-record them as function values.
	consumed map[*ast.Ident]bool
	// handledLits marks immediately invoked literals already walked via
	// their enclosing CallExpr.
	handledLits map[*ast.FuncLit]bool
}

// walkBody records edges out of cur for every call and function
// reference in body, descending into nested literals with their own
// nodes.
func (w *edgeWalker) walkBody(cur *Node, body *ast.BlockStmt) {
	ast.Inspect(body, func(node ast.Node) bool {
		return w.visit(cur, node)
	})
}

// visit classifies one AST node: calls become Call/Go edges, function
// literals become nodes (walked recursively), and function or method
// values referenced outside call position become Ref edges.
func (w *edgeWalker) visit(cur *Node, node ast.Node) bool {
	switch e := node.(type) {
	case *ast.FuncLit:
		if w.handledLits[e] {
			return false // already walked via its enclosing call
		}
		lit := w.newLitNode(cur, e)
		w.addEdge(cur, lit, e.Pos(), EdgeRef)
		w.walkBody(lit, e.Body)
		return false // the recursive walk owns the literal's body
	case *ast.GoStmt:
		w.call(cur, e.Call, EdgeGo)
		// Arguments still evaluate in the caller; walk them normally.
		for _, a := range e.Call.Args {
			ast.Inspect(a, func(n ast.Node) bool { return w.visit(cur, n) })
		}
		return false
	case *ast.CallExpr:
		w.call(cur, e, EdgeCall)
		// Continue into Fun/Args for nested calls and refs; the direct
		// callee ident (and an IIFE's literal) are marked handled.
	case *ast.Ident:
		w.ref(cur, e)
	case *ast.SelectorExpr:
		w.ref(cur, e.Sel)
		// Keep walking: X may itself contain calls.
	}
	return true
}

// call resolves a call expression's static callee and records an edge.
func (w *edgeWalker) call(cur *Node, call *ast.CallExpr, kind EdgeKind) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		// Immediately invoked literal: a plain call edge.
		if w.handledLits == nil {
			w.handledLits = make(map[*ast.FuncLit]bool)
		}
		if w.handledLits[fun] {
			return
		}
		w.handledLits[fun] = true
		lit := w.newLitNode(cur, fun)
		w.addEdge(cur, lit, call.Pos(), kind)
		w.walkBody(lit, fun.Body)
	case *ast.Ident:
		w.resolveCall(cur, call, fun, kind)
	case *ast.SelectorExpr:
		w.resolveCall(cur, call, fun.Sel, kind)
	}
}

func (w *edgeWalker) resolveCall(cur *Node, call *ast.CallExpr, id *ast.Ident, kind EdgeKind) {
	fn, _ := w.unit.Info.Uses[id].(*types.Func)
	if fn == nil {
		return
	}
	w.callFunIdents(id)
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		// Interface dispatch: method-set approximation over module types.
		w.ifaceDispatch(cur, call.Pos(), fn, sig)
		return
	}
	if callee := w.g.Lookup(fn); callee != nil {
		w.addEdge(cur, callee, call.Pos(), kind)
	}
}

// ifaceDispatch adds edges to every module type implementing the
// called interface method.
func (w *edgeWalker) ifaceDispatch(cur *Node, pos token.Pos, fn *types.Func, sig *types.Signature) {
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	if iface == nil {
		return
	}
	for _, named := range w.namedTypes {
		var impl types.Type
		switch {
		case types.Implements(named, iface):
			impl = named
		case types.Implements(types.NewPointer(named), iface):
			impl = types.NewPointer(named)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, fn.Pkg(), fn.Name())
		if m, ok := obj.(*types.Func); ok {
			if callee := w.g.Lookup(m); callee != nil {
				w.addEdge(cur, callee, pos, EdgeIface)
			}
		}
	}
}

func (w *edgeWalker) callFunIdents(id *ast.Ident) {
	if w.consumed == nil {
		w.consumed = make(map[*ast.Ident]bool)
	}
	w.consumed[id] = true
}

// ref records a function or method referenced as a value.
func (w *edgeWalker) ref(cur *Node, id *ast.Ident) {
	if w.consumed[id] {
		return
	}
	fn, _ := w.unit.Info.Uses[id].(*types.Func)
	if fn == nil {
		return
	}
	if callee := w.g.Lookup(fn); callee != nil {
		w.addEdge(cur, callee, id.Pos(), EdgeRef)
	}
}

func (w *edgeWalker) newLitNode(parent *Node, lit *ast.FuncLit) *Node {
	w.litSeq++
	id := FuncID(fmt.Sprintf("%s$%d", parent.ID, w.litSeq))
	n := &Node{
		ID: id, Lit: lit, Unit: w.unit, Pos: lit.Pos(),
		InTest: parent.InTest,
		Hot:    false, Cold: false,
	}
	w.g.Nodes[id] = n
	return n
}

func (w *edgeWalker) addEdge(from, to *Node, pos token.Pos, kind EdgeKind) {
	// Dedup exact (callee, kind, pos) triples only: lockorder needs
	// every distinct call site's position to attach held-lock context.
	for _, e := range from.Out {
		if e.Callee == to && e.Kind == kind && e.Pos == pos {
			return
		}
	}
	from.Out = append(from.Out, Edge{Callee: to, Pos: pos, Kind: kind})
}
