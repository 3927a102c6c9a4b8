package analysis

import (
	"go/ast"
)

// Ctxprop enforces context propagation on outbound HTTP. SLATE's
// control plane is a tree of periodic RPCs (proxy → cluster controller
// → global controller); when a cluster agent or the emulation mesh
// shuts down, every in-flight telemetry push and rule poll must be
// cancellable or shutdown blocks on network timeouts (and a wedged
// upstream wedges the caller's control loop with it). The rule flags
// the context-less conveniences — http.Get/Post/PostForm/Head, the
// equivalent http.Client methods, and http.NewRequest — which all bind
// the request to the background context. Build requests with
// http.NewRequestWithContext and a caller-supplied context instead.
// Test files are exempt: a test's lifetime is the process's.
var Ctxprop = &Analyzer{
	Name: "ctxprop",
	Doc:  "flags outbound HTTP that drops context.Context; use http.NewRequestWithContext",
	Run:  runCtxprop,
}

// ctxlessHTTP maps the FullName of each context-less HTTP call to the
// suggested replacement.
var ctxlessHTTP = map[string]string{
	"net/http.Get":                "http.NewRequestWithContext + client.Do",
	"net/http.Post":               "http.NewRequestWithContext + client.Do",
	"net/http.PostForm":           "http.NewRequestWithContext + client.Do",
	"net/http.Head":               "http.NewRequestWithContext + client.Do",
	"net/http.NewRequest":         "http.NewRequestWithContext",
	"(*net/http.Client).Get":      "http.NewRequestWithContext + (*http.Client).Do",
	"(*net/http.Client).Post":     "http.NewRequestWithContext + (*http.Client).Do",
	"(*net/http.Client).PostForm": "http.NewRequestWithContext + (*http.Client).Do",
	"(*net/http.Client).Head":     "http.NewRequestWithContext + (*http.Client).Do",
}

func runCtxprop(pass *Pass) {
	for _, u := range pass.Prog.Units {
		for _, f := range u.Files {
			if pass.InTestFile(f.Pos()) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(u.Info, call)
				if fn == nil {
					return true
				}
				if repl, ok := ctxlessHTTP[fn.FullName()]; ok {
					pass.Reportf(call.Pos(), "%s binds the request to the background context, so cancellation cannot propagate; use %s", fn.Name(), repl)
				}
				return true
			})
		}
	}
}
