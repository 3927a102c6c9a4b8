package analysis

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Options configures one slate-lint run.
type Options struct {
	// Dir is the module root. Empty means the current directory.
	Dir string
	// Patterns are package directories to lint: "./..." (everything
	// under Dir), "./internal/..." (a subtree), or plain directories.
	// Empty means "./...".
	Patterns []string
	// Analyzers to run. Empty means All().
	Analyzers []*Analyzer
}

// Finding is one diagnostic. File is module-relative.
type Finding struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Result is the outcome of a lint run.
type Result struct {
	Findings []Finding
	// TypeErrors are raw type-checker messages from packages that
	// failed to load; their analyzers are skipped (and a summary
	// finding is emitted per failed unit).
	TypeErrors []string
}

// Run lints the requested packages, writes diagnostics to out in
// "file:line:col: [analyzer] message" form (paths relative to Dir), and
// returns the number of findings after //slate:nolint filtering. A
// non-nil error means the run itself failed (bad pattern, unparsable
// source); findings alone never produce an error.
func Run(opts Options, out io.Writer) (int, error) {
	res, err := RunFindings(opts)
	if err != nil {
		return 0, err
	}
	for _, te := range res.TypeErrors {
		fmt.Fprintln(out, te)
	}
	for _, f := range res.Findings {
		fmt.Fprintln(out, f.String())
	}
	return len(res.Findings), nil
}

// RunFindings lints the requested packages in one pass — every unit
// loaded once, then analyze — and returns structured findings,
// module-relative and deterministically sorted.
func RunFindings(opts Options) (*Result, error) {
	dir := opts.Dir
	if dir == "" {
		dir = "."
	}
	loader, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	analyzers := opts.Analyzers
	if len(analyzers) == 0 {
		analyzers = All()
	}
	patterns := opts.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := expandPatterns(loader.ModuleDir, patterns)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	var units []*Unit
	for _, pkgDir := range dirs {
		loaded, err := loader.Load(pkgDir)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pkgDir, err)
		}
		for _, u := range loaded {
			if len(u.TypeErrors) == 0 {
				units = append(units, u)
				continue
			}
			for _, terr := range u.TypeErrors {
				res.TypeErrors = append(res.TypeErrors, fmt.Sprintf("%s: [typecheck] %v", u.ImportPath, terr))
			}
			res.Findings = append(res.Findings, Finding{
				Analyzer: "typecheck",
				Message:  fmt.Sprintf("%s: %d type error(s), analyzers skipped", u.ImportPath, len(u.TypeErrors)),
			})
		}
	}
	analyze(loader, units, analyzers, func(d Diagnostic) {
		res.Findings = append(res.Findings, toFinding(loader, d))
	})
	sortFindings(res.Findings)
	sort.Strings(res.TypeErrors)
	return res, nil
}

// analyze runs the analyzers over units that type-checked — per-unit
// analyzers one package at a time, whole-program analyzers over the one
// Program built from all of them — and hands report every diagnostic
// that no //slate:nolint directive covers.
func analyze(loader *Loader, units []*Unit, analyzers []*Analyzer, report func(Diagnostic)) {
	nolint := &nolintIndex{byLine: make(map[string]map[int][]string)}
	for _, u := range units {
		collectNolint(loader, u, nolint)
	}
	filtered := func(d Diagnostic) {
		if !nolint.suppressed(d) {
			report(d)
		}
	}
	var prog *Program
	for _, a := range analyzers {
		if a.Run != nil {
			for _, u := range units {
				a.Run(&Pass{
					Analyzer:   a,
					Fset:       loader.Fset,
					Files:      u.Files,
					Pkg:        u.Pkg,
					Info:       u.Info,
					ImportPath: u.ImportPath,
					ModulePath: loader.ModulePath,
					report:     filtered,
				})
			}
		}
		if a.RunProgram != nil {
			if prog == nil {
				prog = NewProgram(loader, units)
			}
			a.RunProgram(&ProgramPass{Analyzer: a, Prog: prog, report: filtered})
		}
	}
}

func toFinding(loader *Loader, d Diagnostic) Finding {
	file := d.Pos.Filename
	if rel, err := filepath.Rel(loader.ModuleDir, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	return Finding{File: file, Line: d.Pos.Line, Col: d.Pos.Column, Analyzer: d.Analyzer, Message: d.Message}
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// expandPatterns turns package patterns into a sorted list of package
// directories. The "..." suffix walks a subtree, skipping testdata,
// hidden directories, and any directory without Go files.
func expandPatterns(moduleDir string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		root := pat
		recursive := false
		if strings.HasSuffix(pat, "/...") || pat == "..." {
			recursive = true
			root = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if root == "" || root == "." {
				root = "."
			}
		}
		if !filepath.IsAbs(root) {
			root = filepath.Join(moduleDir, root)
		}
		fi, err := os.Stat(root)
		if err != nil {
			return nil, fmt.Errorf("pattern %q: %w", pat, err)
		}
		if !fi.IsDir() {
			return nil, fmt.Errorf("pattern %q is not a directory", pat)
		}
		if !recursive {
			add(root)
			continue
		}
		err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// nolintIndex records //slate:nolint directives per file and line.
type nolintIndex struct {
	// byLine maps filename -> line -> analyzer names ("" = all).
	byLine map[string]map[int][]string
}

// collectNolint adds a unit's suppression directives to idx. A
// directive covers its own line and the next line, so it can trail the
// finding or sit on its own line above it.
func collectNolint(l *Loader, u *Unit, idx *nolintIndex) {
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//slate:nolint")
				if !ok {
					continue
				}
				// Drop the "-- reason" tail, keep the analyzer list.
				names, _, _ := strings.Cut(strings.TrimSpace(text), "--")
				var list []string
				for _, n := range strings.FieldsFunc(names, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
					list = append(list, n)
				}
				if len(list) == 0 {
					list = []string{""} // suppress all analyzers
				}
				pos := l.Fset.Position(c.Pos())
				m := idx.byLine[pos.Filename]
				if m == nil {
					m = make(map[int][]string)
					idx.byLine[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], list...)
				m[pos.Line+1] = append(m[pos.Line+1], list...)
			}
		}
	}
}

func (idx *nolintIndex) suppressed(d Diagnostic) bool {
	m := idx.byLine[d.Pos.Filename]
	if m == nil {
		return false
	}
	for _, name := range m[d.Pos.Line] {
		if name == "" || name == d.Analyzer {
			return true
		}
	}
	return false
}
