package analysis

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// NolintEntry is one //slate:nolint directive found in the tree.
type NolintEntry struct {
	File      string // module-relative
	Line      int
	Analyzers []string // empty = all analyzers
	Reason    string   // text after "--", "" if missing
}

// Audit scans the requested packages (syntax only — no type checking)
// for //slate:nolint directives and returns them sorted. Every
// suppression is supposed to carry a `-- reason` tail; entries with an
// empty Reason are the ones -audit exists to catch: an exception
// without a recorded reason is a future bug nobody can triage.
func Audit(opts Options) ([]NolintEntry, error) {
	dir := opts.Dir
	if dir == "" {
		dir = "."
	}
	loader, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	patterns := opts.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := expandPatterns(loader.ModuleDir, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	var entries []NolintEntry
	for _, pkgDir := range dirs {
		names, err := goFilesIn(pkgDir)
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			path := filepath.Join(pkgDir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if f == nil {
				// Unparsable files are the build's problem, not the
				// audit's; skip with the error only if nothing parsed.
				if err != nil {
					continue
				}
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//slate:nolint")
					if !ok {
						continue
					}
					names, reason, hasReason := strings.Cut(strings.TrimSpace(text), "--")
					var list []string
					for _, n := range strings.FieldsFunc(names, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
						list = append(list, n)
					}
					if !hasReason {
						reason = ""
					}
					pos := fset.Position(c.Pos())
					rel := pos.Filename
					if r, err := filepath.Rel(loader.ModuleDir, rel); err == nil && !strings.HasPrefix(r, "..") {
						rel = filepath.ToSlash(r)
					}
					entries = append(entries, NolintEntry{
						File:      rel,
						Line:      pos.Line,
						Analyzers: list,
						Reason:    strings.TrimSpace(reason),
					})
				}
			}
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
	return entries, nil
}

func goFilesIn(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}
