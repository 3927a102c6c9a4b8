package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Lockorder lifts lockguard's per-function lock facts into a
// cross-package acquisition graph and reports potential deadlock
// cycles. Locks are grouped into classes by the named type and field
// that owns them — "(controlplane.Global).mu", "(controlplane.
// ingestStripe).mu" — so the sixteen ingest stripes are one class and
// an ordering inversion between the global controller and the
// per-cluster controllers shows up as a two-node cycle. Acquisition
// sets propagate transitively over the call graph (direct and
// interface-dispatch edges; goroutine launches are excluded — the
// spawned function does not run under the caller's locks).
var Lockorder = &Analyzer{
	Name: "lockorder",
	Doc: "builds a cross-package lock-acquisition graph and flags " +
		"ordering cycles (potential deadlocks) between mutex classes",
	RunProgram: runLockorder,
}

// lockClass is a canonical name for a family of mutexes: the owning
// named type plus field for struct-held locks, the package-qualified
// name for package-level locks, or a function-scoped name for locals.
type lockClass string

// lockEdge is one observed ordering: `from` was held when `to` was
// acquired (directly, or transitively inside a callee).
type lockEdge struct {
	from, to lockClass
	pos      token.Pos
	inFunc   string
	// via is non-empty when the acquisition happened inside a callee
	// rather than at pos itself.
	via string
}

// lockFacts accumulates per-function facts before the cross-function
// fixpoint.
type lockFacts struct {
	// acquires maps each function to the lock classes it acquires
	// directly (regardless of whether it releases them before return:
	// the acquisition still happens during the call).
	acquires map[FuncID]map[lockClass]bool
	// calls records every resolved call site with the lock classes
	// held at that point.
	calls []lockCallSite
	// edges are the intra-function ordering edges.
	edges []lockEdge
}

type lockCallSite struct {
	caller  FuncID
	callees []*Node
	held    []lockClass
	pos     token.Pos
}

func runLockorder(pp *ProgramPass) {
	g := pp.Prog.Graph
	facts := &lockFacts{acquires: make(map[FuncID]map[lockClass]bool)}

	for _, id := range g.NodeIDs() {
		n := g.Nodes[id]
		if n.InTest || n.Body() == nil {
			continue
		}
		t := &lockOrderTracker{
			pp: pp, node: n, facts: facts,
			held:    make(map[lockClass]token.Pos),
			callees: calleesByPos(n),
		}
		t.stmts(n.Body().List)
	}

	// Transitive closure: mayAcquire(f) = acquires(f) ∪ mayAcquire(g)
	// for every call/iface edge f→g. Iterate to fixpoint (the graph is
	// small; cycles from recursion converge because sets only grow).
	may := make(map[FuncID]map[lockClass]bool, len(facts.acquires))
	for id, set := range facts.acquires {
		may[id] = make(map[lockClass]bool, len(set))
		for c := range set {
			may[id][c] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, id := range g.NodeIDs() {
			n := g.Nodes[id]
			for _, e := range n.Out {
				if e.Kind != EdgeCall && e.Kind != EdgeIface {
					continue
				}
				for c := range may[e.Callee.ID] {
					if !may[id][c] {
						if may[id] == nil {
							may[id] = make(map[lockClass]bool)
						}
						may[id][c] = true
						changed = true
					}
				}
			}
		}
	}

	// Cross-function edges: held H at a call to f ⇒ H → mayAcquire(f).
	edges := facts.edges
	for _, cs := range facts.calls {
		for _, callee := range cs.callees {
			for c := range may[callee.ID] {
				for _, h := range cs.held {
					edges = append(edges, lockEdge{
						from: h, to: c, pos: cs.pos,
						inFunc: string(cs.caller), via: callee.String(),
					})
				}
			}
		}
	}

	reportLockCycles(pp, edges)
}

// calleesByPos maps each call site position in n to its resolved
// callees (direct and interface-dispatch; go/ref edges excluded).
func calleesByPos(n *Node) map[token.Pos][]*Node {
	m := make(map[token.Pos][]*Node)
	for _, e := range n.Out {
		if e.Kind == EdgeCall || e.Kind == EdgeIface {
			m[e.Pos] = append(m[e.Pos], e.Callee)
		}
	}
	return m
}

// reportLockCycles finds strongly connected components in the class
// digraph and reports each cycle once, at its lexicographically first
// edge, with a witness chain.
func reportLockCycles(pp *ProgramPass, edges []lockEdge) {
	// Adjacency with one representative edge per (from, to), choosing
	// the smallest position for determinism.
	best := make(map[[2]lockClass]lockEdge)
	for _, e := range edges {
		key := [2]lockClass{e.from, e.to}
		if old, ok := best[key]; !ok || e.pos < old.pos {
			best[key] = e
		}
	}
	adj := make(map[lockClass][]lockClass)
	for key := range best {
		if key[0] != key[1] {
			adj[key[0]] = append(adj[key[0]], key[1])
		}
	}

	// Self-loops first.
	var selfKeys [][2]lockClass
	for key := range best {
		if key[0] == key[1] {
			selfKeys = append(selfKeys, key)
		}
	}
	sort.Slice(selfKeys, func(i, j int) bool { return selfKeys[i][0] < selfKeys[j][0] })
	for _, key := range selfKeys {
		e := best[key]
		pp.Reportf(e.pos, "acquiring a second %s while one is held (in %s%s): two goroutines doing this on different instances deadlock; impose a total order or release first",
			key[0], shortFunc(e.inFunc), viaSuffix(e))
	}

	// SCCs over the distinct-class graph.
	for _, scc := range stronglyConnected(adj) {
		if len(scc) < 2 {
			continue
		}
		sort.Slice(scc, func(i, j int) bool { return scc[i] < scc[j] })
		// Witness chain: walk the cycle starting from the smallest class.
		inSCC := make(map[lockClass]bool, len(scc))
		for _, c := range scc {
			inSCC[c] = true
		}
		var parts []string
		var firstEdge lockEdge
		cur := scc[0]
		for i := 0; i < len(scc); i++ {
			next := pickNext(adj, best, cur, inSCC)
			e := best[[2]lockClass{cur, next}]
			if i == 0 {
				firstEdge = e
			}
			parts = append(parts, fmt.Sprintf("%s → %s (in %s%s at %s)",
				cur, next, shortFunc(e.inFunc), viaSuffix(e), pp.shortPos(e.pos)))
			cur = next
			if cur == scc[0] {
				break
			}
		}
		pp.Reportf(firstEdge.pos, "lock-order cycle between %s: %s; acquire these classes in one global order",
			joinClasses(scc), strings.Join(parts, "; "))
	}
}

// pickNext chooses the smallest in-SCC successor of cur that has a
// recorded edge, for a deterministic witness chain.
func pickNext(adj map[lockClass][]lockClass, best map[[2]lockClass]lockEdge, cur lockClass, inSCC map[lockClass]bool) lockClass {
	var candidates []lockClass
	for _, n := range adj[cur] {
		if inSCC[n] {
			candidates = append(candidates, n)
		}
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	if len(candidates) == 0 {
		return cur
	}
	return candidates[0]
}

func joinClasses(scc []lockClass) string {
	s := make([]string, len(scc))
	for i, c := range scc {
		s[i] = string(c)
	}
	return strings.Join(s, ", ")
}

func viaSuffix(e lockEdge) string {
	if e.via == "" {
		return ""
	}
	return " via call to " + e.via
}

func shortFunc(id string) string {
	if i := strings.LastIndex(id, "/"); i >= 0 {
		return id[i+1:]
	}
	return id
}

func (p *ProgramPass) shortPos(pos token.Pos) string {
	pp := p.Prog.Loader.Fset.Position(pos)
	name := pp.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, pp.Line)
}

// stronglyConnected returns the SCCs of the class digraph (iterative
// Tarjan), in deterministic order.
func stronglyConnected(adj map[lockClass][]lockClass) [][]lockClass {
	var nodes []lockClass
	seen := make(map[lockClass]bool)
	addNode := func(c lockClass) {
		if !seen[c] {
			seen[c] = true
			nodes = append(nodes, c)
		}
	}
	for from, tos := range adj {
		addNode(from)
		for _, to := range tos {
			addNode(to)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, tos := range adj {
		sort.Slice(tos, func(i, j int) bool { return tos[i] < tos[j] })
	}

	index := make(map[lockClass]int)
	low := make(map[lockClass]int)
	onStack := make(map[lockClass]bool)
	var stack []lockClass
	var sccs [][]lockClass
	next := 0

	type frame struct {
		v  lockClass
		ei int
	}
	for _, root := range nodes {
		if _, ok := index[root]; ok {
			continue
		}
		var frames []frame
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		frames = append(frames, frame{v: root})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(adj[f.v]) {
				w := adj[f.v][f.ei]
				f.ei++
				if _, ok := index[w]; !ok {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] {
					if index[w] < low[f.v] {
						low[f.v] = index[w]
					}
				}
				continue
			}
			// Pop.
			if low[f.v] == index[f.v] {
				var scc []lockClass
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == f.v {
						break
					}
				}
				sccs = append(sccs, scc)
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
		}
	}
	return sccs
}

// lockOrderTracker walks one function in statement order (same linear
// approximation as lockguard), tracking held classes and recording
// acquisitions, ordering edges, and call sites.
type lockOrderTracker struct {
	pp      *ProgramPass
	node    *Node
	facts   *lockFacts
	held    map[lockClass]token.Pos
	callees map[token.Pos][]*Node
}

func (t *lockOrderTracker) info() *types.Info { return t.node.Unit.Info }

func (t *lockOrderTracker) stmts(list []ast.Stmt) {
	for _, s := range list {
		t.stmt(s)
	}
}

func (t *lockOrderTracker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.ExprStmt:
		t.expr(s.X)
	case *ast.SendStmt:
		t.expr(s.Chan)
		t.expr(s.Value)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			t.expr(e)
		}
		for _, e := range s.Lhs {
			t.expr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						t.expr(e)
					}
				}
			}
		}
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock to function end — no
		// transition. Other deferred calls run at return; their lock
		// behavior is attributed here conservatively via the call graph
		// (the held set at return is unknowable in a linear walk).
		if fn := calleeFunc(t.info(), s.Call); fn == nil || !unlockMethods[fn.FullName()] {
			for _, a := range s.Call.Args {
				t.expr(a)
			}
		}
	case *ast.GoStmt:
		// The spawned function runs concurrently, not under our locks:
		// only argument evaluation happens here.
		for _, a := range s.Call.Args {
			t.expr(a)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			t.expr(e)
		}
	case *ast.IfStmt:
		t.stmt(s.Init)
		t.expr(s.Cond)
		t.stmts(s.Body.List)
		t.stmt(s.Else)
	case *ast.BlockStmt:
		t.stmts(s.List)
	case *ast.ForStmt:
		t.stmt(s.Init)
		if s.Cond != nil {
			t.expr(s.Cond)
		}
		t.stmts(s.Body.List)
		t.stmt(s.Post)
	case *ast.RangeStmt:
		t.expr(s.X)
		t.stmts(s.Body.List)
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				t.stmts(cc.Body)
			}
		}
	case *ast.SwitchStmt:
		t.stmt(s.Init)
		if s.Tag != nil {
			t.expr(s.Tag)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				t.stmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		t.stmt(s.Init)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				t.stmts(cc.Body)
			}
		}
	case *ast.LabeledStmt:
		t.stmt(s.Stmt)
	}
}

func (t *lockOrderTracker) expr(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // literals are their own nodes
		case *ast.CallExpr:
			t.call(n)
		}
		return true
	})
}

func (t *lockOrderTracker) call(c *ast.CallExpr) {
	fn := calleeFunc(t.info(), c)
	if fn != nil {
		full := fn.FullName()
		switch {
		case lockMethods[full]:
			t.acquire(c)
			return
		case unlockMethods[full]:
			delete(t.held, t.classOf(c))
			return
		}
	}
	// A resolved module call: record the held set for the
	// cross-function pass.
	callees := t.callees[c.Pos()]
	if len(callees) == 0 || len(t.held) == 0 {
		return
	}
	held := make([]lockClass, 0, len(t.held))
	for h := range t.held {
		held = append(held, h)
	}
	sort.Slice(held, func(i, j int) bool { return held[i] < held[j] })
	t.facts.calls = append(t.facts.calls, lockCallSite{
		caller: t.node.ID, callees: callees, held: held, pos: c.Pos(),
	})
}

func (t *lockOrderTracker) acquire(c *ast.CallExpr) {
	class := t.classOf(c)
	set := t.facts.acquires[t.node.ID]
	if set == nil {
		set = make(map[lockClass]bool)
		t.facts.acquires[t.node.ID] = set
	}
	set[class] = true
	for h := range t.held {
		t.facts.edges = append(t.facts.edges, lockEdge{
			from: h, to: class, pos: c.Pos(), inFunc: string(t.node.ID),
		})
	}
	t.held[class] = c.Pos()
}

// classOf canonicalizes the mutex receiver of a Lock/Unlock call into
// a lock class.
func (t *lockOrderTracker) classOf(c *ast.CallExpr) lockClass {
	sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockClass("unknown")
	}
	lockExpr := ast.Unparen(sel.X) // e.g. g.mu, st.mu, errMu
	if fieldSel, ok := lockExpr.(*ast.SelectorExpr); ok {
		// Struct-held lock: class = owning named type + field.
		if base := namedTypeName(t.info().TypeOf(fieldSel.X)); base != "" {
			return lockClass("(" + base + ")." + fieldSel.Sel.Name)
		}
		return lockClass(ExprString(fieldSel))
	}
	if id, ok := lockExpr.(*ast.Ident); ok {
		if obj := t.info().ObjectOf(id); obj != nil {
			if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return lockClass(v.Pkg().Name() + "." + v.Name()) // package-level mutex
			}
		}
		// Function-local mutex: scope the class to the function so
		// unrelated locals in other functions don't alias.
		return lockClass(shortFunc(string(t.node.ID)) + "." + id.Name)
	}
	return lockClass(ExprString(lockExpr))
}
