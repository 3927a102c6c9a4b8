package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Testonly enforces the one-path rule: no option whose only caller is a
// test. It flags an exported function or method declared in a non-test
// file of an internal/ package that no non-test file of the run refers
// to, and an exported field of an exported *Config or *Options struct
// that no non-test file sets. A method whose name and signature match a
// method of an interface declared in any loaded package counts as used,
// because a call through the interface names the interface's method.
//
// Only a whole-module run can know a name is unused, so on a partial run
// the analyzer reports nothing. A nested module under the root (the
// benchmark harness) is part of the run and counts as a user.
var Testonly = &Analyzer{
	Name: "testonly",
	Doc:  "flags exported internal/ functions, methods and config fields that only tests use; production has one path",
	Run:  runTestonly,
}

// declKey identifies a declaration by file and offset, which is stable
// across the separate type-checks of one package (as a unit with its
// tests, and as a dependency of another unit). A method or field of a
// generic type's instantiation sits at its origin's position, so it has
// its origin's key.
type declKey struct {
	file string
	off  int
}

func runTestonly(pass *Pass) {
	prog := pass.Prog
	if !prog.Whole {
		return
	}
	fset := prog.Loader.Fset
	internal := prog.Loader.ModulePath + "/internal/"
	key := func(obj types.Object) (declKey, bool) {
		if obj == nil || !obj.Exported() || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), internal) {
			return declKey{}, false
		}
		f := fset.File(obj.Pos())
		return declKey{f.Name(), f.Offset(obj.Pos())}, true
	}
	used := make(map[declKey]bool)
	mark := func(obj types.Object) {
		if k, ok := key(obj); ok {
			used[k] = true
		}
	}
	// setField marks the field x writes, if x names or selects one.
	setField := func(info *types.Info, x ast.Expr) {
		if sel, ok := ast.Unparen(x).(*ast.SelectorExpr); ok {
			x = sel.Sel
		}
		if id, ok := x.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
				mark(v)
			}
		}
	}

	for _, u := range prog.Units {
		for _, f := range u.Files {
			if pass.InTestFile(f.Pos()) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if fn, ok := u.Info.Uses[n].(*types.Func); ok {
						mark(fn)
					}
				case *ast.KeyValueExpr: // a composite literal's field key
					if id, ok := n.Key.(*ast.Ident); ok {
						setField(u.Info, id)
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						setField(u.Info, lhs)
					}
				case *ast.IncDecStmt:
					setField(u.Info, n.X)
				case *ast.UnaryExpr: // &cfg.Field, e.g. bound to a flag
					if n.Op == token.AND {
						setField(u.Info, n.X)
					}
				}
				return true
			})
		}
	}

	ifaces := interfaceMethods(pass)
	for _, u := range prog.Units {
		if !strings.HasPrefix(u.ImportPath, internal) {
			continue
		}
		for _, f := range u.Files {
			if pass.InTestFile(f.Pos()) {
				continue
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, _ := u.Info.Defs[d.Name].(*types.Func)
					if fn == nil {
						continue
					}
					if k, ok := key(fn); ok && !used[k] && !ifaces.satisfied(fn) {
						pass.Reportf(d.Name.Pos(), "%s is used only by tests: delete it, or move it into the tests that use it", shortName(fn))
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok || !ts.Name.IsExported() || !(strings.HasSuffix(ts.Name.Name, "Config") || strings.HasSuffix(ts.Name.Name, "Options")) {
							continue
						}
						st, ok := ts.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, field := range st.Fields.List {
							for _, name := range field.Names {
								if k, ok := key(u.Info.Defs[name]); ok && !used[k] {
									pass.Reportf(name.Pos(), "%s.%s is set only by tests: production always leaves it at its zero value", ts.Name.Name, name.Name)
								}
							}
						}
					}
				}
			}
		}
	}
}

// shortName renders fn as "pkg.F" or "pkg.T.M".
func shortName(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	if recv := fn.Signature().Recv(); recv != nil {
		if t := namedTypeName(recv.Type()); t != "" {
			name = t + "."
		}
	}
	return name + fn.Name()
}

// ifaceIndex maps a method name to the interface methods of that name.
type ifaceIndex map[string][]*types.Func

// interfaceMethods indexes the methods of every interface type declared
// at package level in a non-test file of any package the run loaded,
// the standard library's included.
func interfaceMethods(pass *Pass) ifaceIndex {
	idx := make(ifaceIndex)
	seen := make(map[*types.Package]bool)
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && !pass.InTestFile(tn.Pos()) {
				for m := range it.Methods() {
					idx[m.Name()] = append(idx[m.Name()], m)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, u := range pass.Prog.Units {
		visit(u.Pkg)
	}
	return idx
}

// satisfied reports whether method fn has the name and signature of an
// indexed interface method.
func (idx ifaceIndex) satisfied(fn *types.Func) bool {
	if fn.Signature().Recv() == nil {
		return false
	}
	sig := sigString(fn.Signature())
	for _, m := range idx[fn.Name()] {
		if sigString(m.Signature()) == sig {
			return true
		}
	}
	return false
}

// sigString renders a signature's parameter and result types without
// their names. Signatures compare as text, because the two may come
// from separate type-checks of one package.
func sigString(sig *types.Signature) string {
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		for v := range tuple.Variables() {
			b.WriteString(types.TypeString(v.Type(), nil))
			b.WriteByte(',')
		}
		b.WriteByte(';')
	}
	if sig.Variadic() {
		b.WriteByte('.')
	}
	return b.String()
}
