package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Loader parses and type-checks packages of one Go module without
// golang.org/x/tools and without the network. Module-internal imports
// are resolved by mapping the import path onto a directory under the
// module root; standard-library imports are satisfied by the stdlib
// source importer reading GOROOT (which the toolchain image always
// ships). External (third-party) imports are unsupported by design —
// the SLATE repo is dependency-free, and keeping the loader closed over
// module+GOROOT is what lets slate-lint run offline in CI.
type Loader struct {
	Fset       *token.FileSet
	ModulePath string
	ModuleDir  string

	ctxt build.Context
	std  types.Importer
	deps map[string]*types.Package // import cache: packages loaded sans test files
}

// Unit is one type-checked compilation unit: a package together with
// its in-package test files, or an external _test package.
type Unit struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	// TypeErrors are non-fatal type-checking problems. A unit with type
	// errors still carries partial type information, but diagnostics
	// from it may be incomplete.
	TypeErrors []types.Error
}

// NewLoader builds a loader rooted at moduleDir, reading the module
// path from go.mod.
func NewLoader(moduleDir string) (*Loader, error) {
	abs, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	l := &Loader{
		Fset:       token.NewFileSet(),
		ModulePath: modPath,
		ModuleDir:  abs,
		ctxt:       build.Default,
		deps:       make(map[string]*types.Package),
	}
	l.std = importer.ForCompiler(l.Fset, "source", nil)
	return l, nil
}

// modulePath extracts the module path from a go.mod file with a plain
// line scan (the stdlib has no go.mod parser).
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("no module directive in %s", gomod)
}

// Load parses and type-checks the package in dir for analysis. It
// returns one Unit for the package including its in-package test files
// and, when dir also holds an external _test package, a second Unit for
// that. Directories with no buildable Go files return (nil, nil).
func (l *Loader) Load(dir string) ([]*Unit, error) {
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			return nil, nil
		}
		return nil, err
	}
	importPath := l.importPathFor(dir)
	var units []*Unit
	if len(bp.GoFiles)+len(bp.TestGoFiles) > 0 {
		u, err := l.check(importPath, dir, append(append([]string{}, bp.GoFiles...), bp.TestGoFiles...))
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	if len(bp.XTestGoFiles) > 0 {
		imp := l
		if len(bp.TestGoFiles) > 0 {
			imp = l.testVariant(importPath, units[0].Pkg)
		}
		u, err := imp.check(importPath+"_test", dir, bp.XTestGoFiles)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	return units, nil
}

// testVariant returns a loader for an external _test package whose
// package under test has in-package test files too. As `go test` does,
// it resolves path to pkg — the package checked with those files, so
// what they export for the external tests (the export_test.go idiom) is
// visible — and re-checks on top of it every package that imports path,
// so that the external package sees one identity of pkg's types however
// it reaches them. Everything else is shared with l.
func (l *Loader) testVariant(path string, pkg *types.Package) *Loader {
	v := *l
	v.deps = map[string]*types.Package{path: pkg}
	reaches := map[*types.Package]bool{}
	var imports func(p *types.Package) bool
	imports = func(p *types.Package) bool {
		if r, ok := reaches[p]; ok {
			return r
		}
		reaches[p] = false // imports are acyclic; this only seeds the memo
		r := p.Path() == path
		for _, imp := range p.Imports() {
			r = imports(imp) || r
		}
		reaches[p] = r
		return r
	}
	for p, dep := range l.deps {
		if !imports(dep) {
			v.deps[p] = dep
		}
	}
	return &v
}

// typeCheck loads the package directories. It returns the program of
// the units that type-checked, and one [typecheck] diagnostic per type
// error of the rest: this is where a unit with type errors is dropped,
// because partial type information would poison every analyzer's facts.
// The program is Whole when dirs are every package directory of the
// module and none was dropped.
func (l *Loader) typeCheck(dirs []string) (*Program, []Diagnostic, error) {
	var units []*Unit
	var diags []Diagnostic
	for _, dir := range dirs {
		loaded, err := l.Load(dir)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", dir, err)
		}
		for _, u := range loaded {
			for _, terr := range u.TypeErrors {
				diags = append(diags, Diagnostic{Pos: l.position(terr.Pos), Analyzer: "typecheck", Message: terr.Msg})
			}
			if len(u.TypeErrors) == 0 {
				units = append(units, u)
			}
		}
	}
	all, err := expandPatterns(l.ModuleDir, []string{"./..."})
	if err != nil {
		return nil, nil, err
	}
	return &Program{Loader: l, Units: units, Whole: len(diags) == 0 && slices.Equal(dirs, all)}, diags, nil
}

// position resolves pos with its filename made module-relative.
func (l *Loader) position(pos token.Pos) token.Position {
	p := l.Fset.Position(pos)
	if rel, err := filepath.Rel(l.ModuleDir, p.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		p.Filename = filepath.ToSlash(rel)
	}
	return p
}

func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModuleDir, dir)
	if err != nil || rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

// check parses the named files and type-checks them as one unit.
func (l *Loader) check(importPath, dir string, names []string) (*Unit, error) {
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	u := &Unit{ImportPath: importPath, Dir: dir, Files: files}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { u.TypeErrors = append(u.TypeErrors, err.(types.Error)) },
	}
	pkg, _ := conf.Check(importPath, l.Fset, files, info) // errors collected via conf.Error
	u.Pkg, u.Info = pkg, info
	return u, nil
}

// Import implements types.Importer so Loader can satisfy the
// type-checker's imports: module-internal paths load from the module
// tree (without test files), everything else is assumed to be standard
// library and delegated to the GOROOT source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.deps[path]; ok {
		return pkg, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		dir := filepath.Join(l.ModuleDir, filepath.FromSlash(rel))
		bp, err := l.ctxt.ImportDir(dir, 0)
		if err != nil {
			return nil, fmt.Errorf("import %q: %w", path, err)
		}
		names := append([]string{}, bp.GoFiles...)
		sort.Strings(names)
		files := make([]*ast.File, 0, len(names))
		for _, name := range names {
			f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		conf := types.Config{Importer: l}
		pkg, err := conf.Check(path, l.Fset, files, nil)
		if err != nil {
			return nil, fmt.Errorf("import %q: %w", path, err)
		}
		l.deps[path] = pkg
		return pkg, nil
	}
	pkg, err := l.std.Import(path)
	if err != nil {
		return nil, err
	}
	l.deps[path] = pkg
	return pkg, nil
}
