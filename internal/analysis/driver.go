package analysis

import (
	"cmp"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
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

// open resolves the module root and expands the patterns into package
// directories.
func (opts Options) open() (*Loader, []string, error) {
	dir := opts.Dir
	if dir == "" {
		dir = "."
	}
	loader, err := NewLoader(dir)
	if err != nil {
		return nil, nil, err
	}
	patterns := opts.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := expandPatterns(loader.ModuleDir, patterns)
	return loader, dirs, err
}

// Run lints the requested packages in one pass — every unit loaded
// once, then analyzed — writes the diagnostics to out in
// "file:line:col: [analyzer] message" form (paths relative to Dir,
// sorted by position), and returns how many it wrote. Every type error
// is one [typecheck] diagnostic. A non-nil error means the run itself
// failed (bad pattern, unparsable source); findings alone never produce
// an error.
func Run(opts Options, out io.Writer) (int, error) {
	loader, dirs, err := opts.open()
	if err != nil {
		return 0, err
	}
	prog, diags, err := loader.typeCheck(dirs)
	if err != nil {
		return 0, err
	}
	analyzers := opts.Analyzers
	if len(analyzers) == 0 {
		analyzers = All()
	}
	analyze(prog, analyzers, func(d Diagnostic) { diags = append(diags, d) })
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		return cmp.Or(
			strings.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column),
			strings.Compare(a.Analyzer, b.Analyzer),
			strings.Compare(a.Message, b.Message))
	})
	for _, d := range diags {
		fmt.Fprintln(out, d)
	}
	return len(diags), nil
}

// analyze runs each analyzer once over the program and hands report
// every diagnostic that no //slate:nolint directive covers. The call
// graph is built only if an analyzer asks for it.
func analyze(prog *Program, analyzers []*Analyzer, report func(Diagnostic)) {
	nolint := make(nolintIndex)
	for _, u := range prog.Units {
		for _, f := range u.Files {
			for _, e := range prog.Loader.nolintEntries(f) {
				nolint.add(e)
			}
		}
	}
	for _, a := range analyzers {
		a.Run(&Pass{Analyzer: a, Prog: prog, report: func(d Diagnostic) {
			if !nolint.suppressed(d) {
				report(d)
			}
		}})
	}
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
			if names, _ := goFiles(path); len(names) > 0 { // an unreadable directory lists none
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

// goFiles lists the .go files in dir, sorted by name.
func goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	return names, err
}

// nolintIndex maps a module-relative file and line to the analyzers
// suppressed there ("" = all).
type nolintIndex map[nolintLine][]string

type nolintLine struct {
	file string
	line int
}

func (idx nolintIndex) add(e NolintEntry) {
	names := e.Analyzers
	if len(names) == 0 {
		names = []string{""}
	}
	at := nolintLine{e.File, e.covers}
	idx[at] = append(idx[at], names...)
}

func (idx nolintIndex) suppressed(d Diagnostic) bool {
	for _, name := range idx[nolintLine{d.Pos.Filename, d.Pos.Line}] {
		if name == "" || name == d.Analyzer {
			return true
		}
	}
	return false
}
