package analysis

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// tempModule writes a module example.com/tmpmod with the given files
// (slash paths relative to its root) and returns the root.
func tempModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module example.com/tmpmod\n\ngo 1.24\n"
	for name, content := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestAudit checks the nolint inventory: directives are found with
// their analyzer lists and reasons, and a missing `-- reason` tail is
// surfaced as an empty Reason.
func TestAudit(t *testing.T) {
	src := `package pkg

// Eq compares floats deliberately.
func Eq(x, y float64) bool {
	a := x == y //slate:nolint floatcmp -- exact sentinel comparison
	b := x == 0 //slate:nolint
	return a || b
}
`
	entries, err := Audit(Options{Dir: tempModule(t, map[string]string{"pkg/pkg.go": src})})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("Audit found %d entries, want 2: %+v", len(entries), entries)
	}
	first, second := entries[0], entries[1]
	if first.Line >= second.Line {
		t.Errorf("entries not sorted by line: %+v", entries)
	}
	if len(first.Analyzers) != 1 || first.Analyzers[0] != "floatcmp" {
		t.Errorf("first entry analyzers = %v, want [floatcmp]", first.Analyzers)
	}
	if first.Reason != "exact sentinel comparison" {
		t.Errorf("first entry reason = %q", first.Reason)
	}
	if first.File != "pkg/pkg.go" {
		t.Errorf("first entry file = %q, want module-relative pkg/pkg.go", first.File)
	}
	if second.Reason != "" {
		t.Errorf("bare directive should have empty reason, got %q", second.Reason)
	}
	if len(second.Analyzers) != 0 {
		t.Errorf("bare directive should cover all analyzers, got %v", second.Analyzers)
	}
}

// TestAuditRepoClean asserts the real tree's suppressions all carry
// reasons — the invariant `slate-lint -audit` enforces in CI.
func TestAuditRepoClean(t *testing.T) {
	entries, err := Audit(Options{Dir: repoRoot(t)})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Reason == "" {
			t.Errorf("%s:%d: //slate:nolint without a -- reason", e.File, e.Line)
		}
	}
}

// FuzzNolintDirective holds the one //slate:nolint parser to its
// contract for any comment text: the parse is total, it matches only
// when whitespace or the end of the comment follows the prefix, names
// carry no separator or "--", the reason is trimmed, and the driver's
// suppression index covers exactly what Audit's entry says — its own
// line when the directive trails code, the next when it stands alone.
func FuzzNolintDirective(f *testing.F) {
	f.Add("//slate:nolint floatcmp -- reason")
	f.Fuzz(func(t *testing.T, text string) {
		names, reason, ok := parseNolint(text)
		rest, prefixed := strings.CutPrefix(text, "//slate:nolint")
		r, _ := utf8.DecodeRuneInString(rest)
		if want := prefixed && (rest == "" || unicode.IsSpace(r)); ok != want {
			t.Fatalf("parseNolint(%q) ok = %v, want %v", text, ok, want)
		}
		if !ok && (names != nil || reason != "") {
			t.Fatalf("parseNolint(%q) = %q, %q for a non-directive", text, names, reason)
		}
		for _, n := range names {
			if n == "" || strings.Contains(n, "--") || strings.ContainsFunc(n, func(r rune) bool { return r == ',' || unicode.IsSpace(r) }) {
				t.Fatalf("parseNolint(%q): name %q", text, n)
			}
		}
		if reason != strings.TrimSpace(reason) {
			t.Fatalf("parseNolint(%q): untrimmed reason %q", text, reason)
		}
		if !ok || strings.ContainsAny(text, "\r\n") {
			return
		}

		// Line 3 trails code, line 4 stands alone above line 5.
		src := "package p\n\nvar a = 0 " + text + "\n" + text + "\nvar b = 0\n"
		entries, err := Audit(Options{Dir: tempModule(t, map[string]string{"p.go": src})})
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 2 {
			if _, err := parser.ParseFile(token.NewFileSet(), "p.go", src, parser.ParseComments); err == nil {
				t.Fatalf("%q: %d entries, want 2: %+v", text, len(entries), entries)
			}
			return // not a comment the Go parser accepts (a NUL byte, say)
		}
		for i, at := range [][2]int{{3, 3}, {4, 5}} {
			e := entries[i]
			if e.File != "p.go" || e.Line != at[0] || e.covers != at[1] ||
				!reflect.DeepEqual(e.Analyzers, names) || e.Reason != reason {
				t.Fatalf("%q: entry %+v, want line %d covering %d with %q -- %q", text, e, at[0], at[1], names, reason)
			}
			idx := make(nolintIndex)
			idx.add(e)
			for line := 1; line <= 6; line++ {
				for _, name := range append(slices.Clone(names), "not listed") {
					d := Diagnostic{Analyzer: name}
					d.Pos.Filename, d.Pos.Line = e.File, line
					want := line == e.covers && (len(names) == 0 || slices.Contains(names, name))
					if got := idx.suppressed(d); got != want {
						t.Fatalf("%q: entry at line %d suppresses [%s] at line %d = %v, want %v", text, e.Line, name, line, got, want)
					}
				}
			}
		}
	})
}
