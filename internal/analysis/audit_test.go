package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// TestAudit checks the nolint inventory: directives are found with
// their analyzer lists and reasons, and a missing `-- reason` tail is
// surfaced as an empty Reason.
func TestAudit(t *testing.T) {
	root := t.TempDir()
	src := `package pkg

// Eq compares floats deliberately.
func Eq(x, y float64) bool {
	a := x == y //slate:nolint floatcmp -- exact sentinel comparison
	b := x == 0 //slate:nolint
	return a || b
}
`
	if err := os.Mkdir(filepath.Join(root, "pkg"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, content := range map[string]string{"go.mod": "module example.com/tmpmod\n\ngo 1.24\n", "pkg/pkg.go": src} {
		if err := os.WriteFile(filepath.Join(root, filepath.FromSlash(name)), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	entries, err := Audit(Options{Dir: root})
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
