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
	for _, f := range pass.Files {
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
				t := &lockTracker{pass: pass, locked: make(map[string]token.Pos)}
				t.stmts(body.List)
			}
			return true // nested FuncLits get their own tracker
		})
	}
}

// lockTracker walks one function body in statement order, maintaining
// the set of held locks keyed by the receiver expression ("c.mu").
// Branch bodies are visited with the same state — a linear
// approximation that matches the straight-line lock/unlock style of
// this codebase.
type lockTracker struct {
	pass   *Pass
	locked map[string]token.Pos
}

func (t *lockTracker) stmts(list []ast.Stmt) {
	for _, s := range list {
		t.stmt(s)
	}
}

func (t *lockTracker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.ExprStmt:
		t.expr(s.X)
	case *ast.SendStmt:
		t.expr(s.Chan)
		t.expr(s.Value)
		t.blocking(s.Arrow, "channel send")
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
		// defer mu.Unlock() releases at return: the lock stays held for
		// the rest of the body, which is exactly the current state — no
		// transition. A deferred blocking call runs outside the walked
		// order; only its arguments evaluate here.
		if fn := calleeFunc(t.pass.Info, s.Call); fn == nil || !unlockMethods[fn.FullName()] {
			for _, a := range s.Call.Args {
				t.expr(a)
			}
		}
	case *ast.GoStmt:
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
		if tv, ok := t.pass.Info.Types[s.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				t.blocking(s.For, "range over channel")
			}
		}
		t.expr(s.X)
		t.stmts(s.Body.List)
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			t.blocking(s.Select, "select without default")
		}
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

// expr walks an expression in evaluation order, applying lock
// transitions and reporting blocking operations. Function literals are
// skipped: they execute later, in their own frame.
func (t *lockTracker) expr(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				t.blocking(n.OpPos, "channel receive")
			}
		case *ast.CallExpr:
			t.call(n)
		}
		return true
	})
}

func (t *lockTracker) call(c *ast.CallExpr) {
	fn := calleeFunc(t.pass.Info, c)
	if fn == nil {
		return
	}
	full := fn.FullName()
	switch {
	case lockMethods[full]:
		t.locked[t.recvKey(c)] = c.Pos()
	case unlockMethods[full]:
		delete(t.locked, t.recvKey(c))
	default:
		if label, ok := blockingCalls[full]; ok {
			t.blocking(c.Pos(), label)
		}
	}
}

// recvKey names the locked mutex by its receiver expression.
func (t *lockTracker) recvKey(c *ast.CallExpr) string {
	if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok {
		return ExprString(sel.X)
	}
	return "mutex"
}

func (t *lockTracker) blocking(pos token.Pos, what string) {
	for name, lockPos := range t.locked {
		lp := t.pass.Fset.Position(lockPos)
		t.pass.Reportf(pos, "%s held across %s blocks all contenders (and can deadlock the control loop); release the lock first (locked at %s:%d)",
			name, what, filepath.Base(lp.Filename), lp.Line)
	}
}
