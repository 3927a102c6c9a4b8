package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// Lockguard flags sync.Mutex/RWMutex locks held across blocking
// operations: outbound HTTP, channel sends/receives, select without
// default, time.Sleep, WaitGroup/Cond waits. SLATE's control loop is
// latency-sensitive by design — the global controller must keep
// ingesting telemetry and pushing rules while clusters come and go —
// and the established pattern in internal/controlplane is
// "lock, snapshot, unlock, then do the RPC" (see Cluster.Collect,
// Global.Tick). Holding a mutex across a network call turns one slow
// peer into a stalled control plane, and under the emulation's loopback
// topology it deadlocks outright when the peer calls back. The check is
// a per-function, straight-line approximation: it tracks Lock/Unlock
// transitions in statement order (defer Unlock keeps the lock held to
// function end) and does not follow calls into other functions, which
// keeps it fast and nearly false-positive-free on this codebase.
var Lockguard = &Analyzer{
	Name: "lockguard",
	Doc:  "flags sync locks held across blocking calls (http, channel ops, time.Sleep)",
	Run:  runLockguard,
}

var lockMethods = map[string]bool{
	"(*sync.Mutex).Lock":    true,
	"(*sync.RWMutex).Lock":  true,
	"(*sync.RWMutex).RLock": true,
}

var unlockMethods = map[string]bool{
	"(*sync.Mutex).Unlock":    true,
	"(*sync.RWMutex).Unlock":  true,
	"(*sync.RWMutex).RUnlock": true,
}

// blockingCalls maps callee FullNames to a human label.
var blockingCalls = map[string]string{
	"time.Sleep":                        "time.Sleep",
	"net/http.Get":                      "http.Get",
	"net/http.Post":                     "http.Post",
	"net/http.PostForm":                 "http.PostForm",
	"net/http.Head":                     "http.Head",
	"(*net/http.Client).Do":             "(*http.Client).Do",
	"(*net/http.Client).Get":            "(*http.Client).Get",
	"(*net/http.Client).Post":           "(*http.Client).Post",
	"(*net/http.Client).PostForm":       "(*http.Client).PostForm",
	"(*net/http.Client).Head":           "(*http.Client).Head",
	"(net/http.RoundTripper).RoundTrip": "RoundTripper.RoundTrip",
	"(*sync.WaitGroup).Wait":            "(*sync.WaitGroup).Wait",
	"(*sync.Cond).Wait":                 "(*sync.Cond).Wait",
}

func runLockguard(pass *Pass) {
	fset := pass.Prog.Loader.Fset
	for _, u := range pass.Prog.Units {
		for _, f := range u.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch fn := n.(type) {
				case *ast.FuncDecl:
					body = fn.Body
				case *ast.FuncLit:
					body = fn.Body
				default:
					return true
				}
				if body != nil {
					w := newLockWalk(u.Info, recvKey)
					w.onBlock = func(pos token.Pos, what string, held map[string]token.Pos) {
						for name, lockPos := range held {
							lp := fset.Position(lockPos)
							pass.Reportf(pos, "%s held across %s blocks all contenders (and can deadlock the control loop); release the lock first (locked at %s:%d)",
								name, what, filepath.Base(lp.Filename), lp.Line)
						}
					}
					w.stmts(body.List)
				}
				return true // nested FuncLits get their own walk
			})
		}
	}
}

// recvKey is lockguard's lock key: the receiver expression ("c.mu").
func recvKey(c *ast.CallExpr) string {
	if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok {
		return ExprString(sel.X)
	}
	return "mutex"
}

// lockWalk walks one function body in statement order, maintaining the
// set of held locks under the analyzer's key. Branch bodies are visited
// with the same state — a linear approximation that matches the
// straight-line lock/unlock style of this codebase. Function literals
// are skipped: they execute later, in their own frame. lockguard and
// lockorder share the walk and differ in their key and hooks.
type lockWalk struct {
	info *types.Info
	key  func(lock *ast.CallExpr) string
	held map[string]token.Pos // key -> where it was locked

	// onLock sees a Lock call before its key joins held.
	onLock func(lock *ast.CallExpr, key string, held map[string]token.Pos)
	// onCall sees every call that neither locks nor unlocks.
	onCall func(call *ast.CallExpr, held map[string]token.Pos)
	// onBlock sees every operation that can block while a lock is held.
	onBlock func(pos token.Pos, what string, held map[string]token.Pos)
}

func newLockWalk(info *types.Info, key func(*ast.CallExpr) string) *lockWalk {
	return &lockWalk{info: info, key: key, held: make(map[string]token.Pos)}
}

func (w *lockWalk) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *lockWalk) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
		w.block(s.Arrow, "channel send")
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e)
		}
		for _, e := range s.Lhs {
			w.expr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.expr(e)
					}
				}
			}
		}
	case *ast.DeferStmt:
		// defer mu.Unlock() releases at return: the lock stays held for
		// the rest of the body, which is exactly the current state — no
		// transition. Any other deferred call runs outside the walked
		// order; only its arguments evaluate here.
		if fn := calleeFunc(w.info, s.Call); fn == nil || !unlockMethods[fn.FullName()] {
			for _, a := range s.Call.Args {
				w.expr(a)
			}
		}
	case *ast.GoStmt:
		// The spawned call runs concurrently, not under our locks: only
		// argument evaluation happens here.
		for _, a := range s.Call.Args {
			w.expr(a)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e)
		}
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.stmts(s.Body.List)
		w.stmt(s.Else)
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.ForStmt:
		w.stmt(s.Init)
		if s.Cond != nil {
			w.expr(s.Cond)
		}
		w.stmts(s.Body.List)
		w.stmt(s.Post)
	case *ast.RangeStmt:
		if tv, ok := w.info.Types[s.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				w.block(s.For, "range over channel")
			}
		}
		w.expr(s.X)
		w.stmts(s.Body.List)
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			w.block(s.Select, "select without default")
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmts(cc.Body)
			}
		}
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body)
			}
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	}
}

// expr walks an expression in evaluation order, applying lock
// transitions and passing channel receives and calls to the hooks.
func (w *lockWalk) expr(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.block(n.OpPos, "channel receive")
			}
		case *ast.CallExpr:
			w.call(n)
		}
		return true
	})
}

func (w *lockWalk) call(c *ast.CallExpr) {
	full := ""
	if fn := calleeFunc(w.info, c); fn != nil {
		full = fn.FullName()
	}
	switch {
	case lockMethods[full]:
		key := w.key(c)
		if w.onLock != nil {
			w.onLock(c, key, w.held)
		}
		w.held[key] = c.Pos()
	case unlockMethods[full]:
		delete(w.held, w.key(c))
	default:
		if what, ok := blockingCalls[full]; ok {
			w.block(c.Pos(), what)
		}
		if w.onCall != nil {
			w.onCall(c, w.held)
		}
	}
}

func (w *lockWalk) block(pos token.Pos, what string) {
	if w.onBlock != nil {
		w.onBlock(pos, what, w.held)
	}
}
