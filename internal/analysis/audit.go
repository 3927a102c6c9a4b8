package analysis

import (
	"bytes"
	"cmp"
	"go/ast"
	"go/parser"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// NolintEntry is one //slate:nolint directive found in the tree.
type NolintEntry struct {
	File      string // module-relative
	Line      int
	Analyzers []string // empty = all analyzers
	Reason    string   // text after "--", "" if missing

	// covers is the line the directive suppresses: its own when it
	// trails code, the next when it stands alone on its line.
	covers int
}

// Audit scans the requested packages (syntax only — no type checking)
// for //slate:nolint directives and returns them sorted. Every
// suppression is supposed to carry a `-- reason` tail; entries with an
// empty Reason are the ones -audit exists to catch: an exception
// without a recorded reason is a future bug nobody can triage.
func Audit(opts Options) ([]NolintEntry, error) {
	loader, dirs, err := opts.open()
	if err != nil {
		return nil, err
	}
	var entries []NolintEntry
	for _, dir := range dirs {
		names, err := goFiles(dir)
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			// Unparsable files are the build's problem, not the audit's.
			if f, _ := parser.ParseFile(loader.Fset, filepath.Join(dir, name), nil, parser.ParseComments); f != nil {
				entries = append(entries, loader.nolintEntries(f)...)
			}
		}
	}
	slices.SortStableFunc(entries, func(a, b NolintEntry) int {
		return cmp.Or(strings.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line))
	})
	return entries, nil
}

// nolintEntries returns the //slate:nolint directives in f: the one
// parse behind both the driver's suppressions and -audit.
func (l *Loader) nolintEntries(f *ast.File) []NolintEntry {
	var entries []NolintEntry
	var src []byte
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			names, reason, ok := parseNolint(c.Text)
			if !ok {
				continue
			}
			pos := l.position(c.Pos())
			e := NolintEntry{File: pos.Filename, Line: pos.Line, Analyzers: names, Reason: reason, covers: pos.Line}
			raw := l.Fset.PositionFor(c.Pos(), false)
			if src == nil {
				// The file was just parsed; should it vanish, its
				// directives are taken as trailing code.
				src, _ = os.ReadFile(raw.Filename)
			}
			if raw.Offset <= len(src) && len(bytes.TrimSpace(src[raw.Offset-raw.Column+1:raw.Offset])) == 0 {
				e.covers++ // alone on its line
			}
			entries = append(entries, e)
		}
	}
	return entries
}

// parseNolint reads one comment as a directive: "//slate:nolint", then
// whitespace or the end of the comment, then analyzer names separated
// by commas or whitespace, then an optional "-- reason".
func parseNolint(text string) (names []string, reason string, ok bool) {
	rest, ok := strings.CutPrefix(text, "//slate:nolint")
	if r, _ := utf8.DecodeRuneInString(rest); !ok || rest != "" && !unicode.IsSpace(r) {
		return nil, "", false
	}
	list, reason, _ := strings.Cut(rest, "--")
	names = strings.FieldsFunc(list, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
	return names, strings.TrimSpace(reason), true
}
