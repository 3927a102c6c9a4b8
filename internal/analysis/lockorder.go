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
// Cluster).mu" — so every cluster controller's lock is one class and
// an ordering inversion between the global controller and the
// per-cluster controllers shows up as a two-node cycle. Acquisition
// sets propagate transitively over the call graph (direct and
// interface-dispatch edges; goroutine launches are excluded — the
// spawned function does not run under the caller's locks).
var Lockorder = &Analyzer{
	Name: "lockorder",
	Doc: "builds a cross-package lock-acquisition graph and flags " +
		"ordering cycles (potential deadlocks) between mutex classes",
	Run: runLockorder,
}

// lockEdge is one observed ordering: class `from` was held when class
// `to` was acquired (directly, or transitively inside a callee).
type lockEdge struct {
	from, to string
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
	acquires map[FuncID]map[string]bool
	// calls records every resolved call site with the lock classes
	// held at that point.
	calls []lockCallSite
	// edges are the intra-function ordering edges.
	edges []lockEdge
}

type lockCallSite struct {
	caller  FuncID
	callees []*Node
	held    []string
	pos     token.Pos
}

func runLockorder(pass *Pass) {
	g := pass.Prog.Graph()
	facts := &lockFacts{acquires: make(map[FuncID]map[string]bool)}

	for _, id := range g.NodeIDs() {
		n := g.Nodes[id]
		if n.InTest || n.Body() == nil {
			continue
		}
		facts.walk(n)
	}

	// Transitive closure: mayAcquire(f) = acquires(f) ∪ mayAcquire(g)
	// for every call/iface edge f→g. Iterate to fixpoint (the graph is
	// small; cycles from recursion converge because sets only grow).
	may := make(map[FuncID]map[string]bool, len(facts.acquires))
	for id, set := range facts.acquires {
		may[id] = make(map[string]bool, len(set))
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
							may[id] = make(map[string]bool)
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

	reportLockCycles(pass, edges)
}

// walk runs the shared lock walk over n, recording each acquisition
// with the ordering edges from the classes already held, and each
// resolved module call made under a lock.
func (facts *lockFacts) walk(n *Node) {
	callees := calleesByPos(n)
	w := newLockWalk(n.Unit.Info, func(c *ast.CallExpr) string { return classOf(n, c) })
	w.onLock = func(c *ast.CallExpr, class string, held map[string]token.Pos) {
		set := facts.acquires[n.ID]
		if set == nil {
			set = make(map[string]bool)
			facts.acquires[n.ID] = set
		}
		set[class] = true
		for h := range held {
			facts.edges = append(facts.edges, lockEdge{
				from: h, to: class, pos: c.Pos(), inFunc: string(n.ID),
			})
		}
	}
	w.onCall = func(c *ast.CallExpr, held map[string]token.Pos) {
		if len(callees[c.Pos()]) == 0 || len(held) == 0 {
			return
		}
		classes := make([]string, 0, len(held))
		for h := range held {
			classes = append(classes, h)
		}
		sort.Strings(classes)
		facts.calls = append(facts.calls, lockCallSite{
			caller: n.ID, callees: callees[c.Pos()], held: classes, pos: c.Pos(),
		})
	}
	w.stmts(n.Body().List)
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

// classOf is lockorder's lock key: it canonicalizes the mutex receiver
// of a Lock/Unlock call in n into a lock class, the name of a family of
// mutexes — the owning named type plus field for struct-held locks,
// the package-qualified name for package-level locks, or a
// function-scoped name for locals.
func classOf(n *Node, c *ast.CallExpr) string {
	sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
	if !ok {
		return "unknown"
	}
	info := n.Unit.Info
	lockExpr := ast.Unparen(sel.X) // e.g. g.mu, c.mu, f.mu
	if fieldSel, ok := lockExpr.(*ast.SelectorExpr); ok {
		// Struct-held lock: class = owning named type + field.
		if base := namedTypeName(info.TypeOf(fieldSel.X)); base != "" {
			return "(" + base + ")." + fieldSel.Sel.Name
		}
		return ExprString(fieldSel)
	}
	if id, ok := lockExpr.(*ast.Ident); ok {
		if obj := info.ObjectOf(id); obj != nil {
			if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Name() + "." + v.Name() // package-level mutex
			}
		}
		// Function-local mutex: scope the class to the function so
		// unrelated locals in other functions don't alias.
		return shortFunc(string(n.ID)) + "." + id.Name
	}
	return ExprString(lockExpr)
}

// reportLockCycles finds strongly connected components in the class
// digraph and reports each cycle once, at its lexicographically first
// edge, with a witness chain.
func reportLockCycles(pass *Pass, edges []lockEdge) {
	// Adjacency with one representative edge per (from, to), choosing
	// the smallest position for determinism.
	best := make(map[[2]string]lockEdge)
	for _, e := range edges {
		key := [2]string{e.from, e.to}
		if old, ok := best[key]; !ok || e.pos < old.pos {
			best[key] = e
		}
	}
	adj := make(map[string][]string)
	for key := range best {
		if key[0] != key[1] {
			adj[key[0]] = append(adj[key[0]], key[1])
		}
	}

	// Self-loops first.
	var selfKeys [][2]string
	for key := range best {
		if key[0] == key[1] {
			selfKeys = append(selfKeys, key)
		}
	}
	sort.Slice(selfKeys, func(i, j int) bool { return selfKeys[i][0] < selfKeys[j][0] })
	for _, key := range selfKeys {
		e := best[key]
		pass.Reportf(e.pos, "acquiring a second %s while one is held (in %s%s): two goroutines doing this on different instances deadlock; impose a total order or release first",
			key[0], shortFunc(e.inFunc), viaSuffix(e))
	}

	// SCCs over the distinct-class graph.
	for _, scc := range stronglyConnected(adj) {
		if len(scc) < 2 {
			continue
		}
		sort.Strings(scc)
		// Witness chain: walk the cycle starting from the smallest class.
		inSCC := make(map[string]bool, len(scc))
		for _, c := range scc {
			inSCC[c] = true
		}
		var parts []string
		var firstEdge lockEdge
		cur := scc[0]
		for i := 0; i < len(scc); i++ {
			next := pickNext(adj, cur, inSCC)
			e := best[[2]string{cur, next}]
			if i == 0 {
				firstEdge = e
			}
			parts = append(parts, fmt.Sprintf("%s → %s (in %s%s at %s)",
				cur, next, shortFunc(e.inFunc), viaSuffix(e), pass.shortPos(e.pos)))
			cur = next
			if cur == scc[0] {
				break
			}
		}
		pass.Reportf(firstEdge.pos, "lock-order cycle between %s: %s; acquire these classes in one global order",
			strings.Join(scc, ", "), strings.Join(parts, "; "))
	}
}

// pickNext chooses the smallest in-SCC successor of cur, for a
// deterministic witness chain.
func pickNext(adj map[string][]string, cur string, inSCC map[string]bool) string {
	var candidates []string
	for _, n := range adj[cur] {
		if inSCC[n] {
			candidates = append(candidates, n)
		}
	}
	sort.Strings(candidates)
	if len(candidates) == 0 {
		return cur
	}
	return candidates[0]
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

func (p *Pass) shortPos(pos token.Pos) string {
	pp := p.Prog.Loader.Fset.Position(pos)
	name := pp.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, pp.Line)
}

// stronglyConnected returns the SCCs of the class digraph (iterative
// Tarjan), in deterministic order.
func stronglyConnected(adj map[string][]string) [][]string {
	var nodes []string
	seen := make(map[string]bool)
	addNode := func(c string) {
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
	sort.Strings(nodes)
	for _, tos := range adj {
		sort.Strings(tos)
	}

	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var sccs [][]string
	next := 0

	type frame struct {
		v  string
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
				var scc []string
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
