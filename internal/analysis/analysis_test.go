package analysis

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func runFixture(t *testing.T, a *Analyzer) {
	t.Helper()
	complaints, err := CheckFixture(repoRoot(t), filepath.Join("testdata", "lint", a.Name), a)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range complaints {
		t.Error(c)
	}
}

func TestLockguardFixture(t *testing.T) { runFixture(t, Lockguard) }
func TestFloatcmpFixture(t *testing.T)  { runFixture(t, Floatcmp) }
func TestDetrandFixture(t *testing.T)   { runFixture(t, Detrand) }
func TestCtxpropFixture(t *testing.T)   { runFixture(t, Ctxprop) }
func TestHotallocFixture(t *testing.T)  { runFixture(t, Hotalloc) }
func TestDetorderFixture(t *testing.T)  { runFixture(t, Detorder) }
func TestLockorderFixture(t *testing.T) { runFixture(t, Lockorder) }

// TestDriverSmoke runs the full driver — pattern expansion, all
// analyzers, nolint filtering, output formatting — over the fixture
// packages and checks the aggregate behaves like the CI gate would.
func TestDriverSmoke(t *testing.T) {
	smokePatterns := []string{
		"testdata/lint/ctxprop",
		"testdata/lint/detorder",
		"testdata/lint/detrand",
		"testdata/lint/floatcmp",
		"testdata/lint/hotalloc",
		"testdata/lint/lockguard",
		"testdata/lint/lockorder",
	}
	var out bytes.Buffer
	findings, err := Run(Options{
		Dir:      repoRoot(t),
		Patterns: smokePatterns,
	}, &out)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if findings == 0 {
		t.Fatalf("driver found nothing over the fixtures;\n%s", out.String())
	}
	lineRE := regexp.MustCompile(`^\S+\.go:\d+:\d+: \[[a-z]+\] .+$`)
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != findings {
		t.Errorf("findings=%d but %d output lines", findings, len(lines))
	}
	for _, a := range All() {
		if !strings.Contains(out.String(), "["+a.Name+"]") {
			t.Errorf("no [%s] finding in driver output over fixtures", a.Name)
		}
	}
	for _, ln := range lines {
		if !lineRE.MatchString(ln) {
			t.Errorf("malformed diagnostic line: %q", ln)
		}
	}
	// The nolint'd float sentinel in the floatcmp fixture must stay
	// suppressed through the driver path too.
	if strings.Contains(out.String(), "sentinel") {
		t.Errorf("//slate:nolint directive not honored:\n%s", out.String())
	}
	// Deterministic ordering: a second run prints byte-identical output.
	var out2 bytes.Buffer
	if _, err := Run(Options{
		Dir:      repoRoot(t),
		Patterns: smokePatterns,
	}, &out2); err != nil {
		t.Fatalf("Run #2: %v", err)
	}
	if out.String() != out2.String() {
		t.Errorf("driver output not deterministic:\n--- first\n%s--- second\n%s", out.String(), out2.String())
	}
}

// TestDriverTypeErrors: each type error is one [typecheck] diagnostic at
// its module-relative position, in the driver's line format, and the
// unit's analyzers are skipped.
func TestDriverTypeErrors(t *testing.T) {
	root := tempModule(t, map[string]string{
		"pkg/pkg.go": "package pkg\n\nfunc F() int { return undefinedA + undefinedB }\n",
	})
	var out bytes.Buffer
	n, err := Run(Options{Dir: root}, &out)
	if err != nil {
		t.Fatal(err)
	}
	want := "pkg/pkg.go:3:23: [typecheck] undefined: undefinedA\n" +
		"pkg/pkg.go:3:36: [typecheck] undefined: undefinedB\n"
	if n != 2 || out.String() != want {
		t.Errorf("Run = %d diagnostics:\n%s\nwant 2:\n%s", n, out.String(), want)
	}
}

// TestLoaderExternalTestPackage: an external _test package is checked,
// as `go test` compiles it, against the package with its in-package test
// files — so export_test.go symbols resolve — and the packages between
// the two are re-checked on that variant, so a type reached directly and
// through a dependency is one type.
func TestLoaderExternalTestPackage(t *testing.T) {
	loader, err := NewLoader(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	units, err := loader.Load(filepath.Join(repoRoot(t), "testdata/lint/xtest"))
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 2 {
		t.Fatalf("loaded %d units, want the package and its external tests", len(units))
	}
	for _, u := range units {
		if len(u.TypeErrors) > 0 {
			t.Errorf("%s: %v", u.ImportPath, u.TypeErrors)
		}
	}
}

// TestExpandPatterns checks ./... walking skips testdata and picks up
// real packages.
func TestExpandPatterns(t *testing.T) {
	root := repoRoot(t)
	dirs, err := expandPatterns(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var sawAnalysis, sawTestdata bool
	for _, d := range dirs {
		rel, _ := filepath.Rel(root, d)
		if rel == filepath.Join("internal", "analysis") {
			sawAnalysis = true
		}
		if strings.Contains(rel, "testdata") {
			sawTestdata = true
		}
	}
	if !sawAnalysis {
		t.Error("./... did not include internal/analysis")
	}
	if sawTestdata {
		t.Error("./... walked into testdata")
	}
}

// TestByName covers the analyzer selection used by -run.
func TestByName(t *testing.T) {
	found, unknown := ByName([]string{"lockguard", "nope"})
	if len(found) != 1 || found[0] != Lockguard {
		t.Errorf("ByName found = %v", found)
	}
	if len(unknown) != 1 || unknown[0] != "nope" {
		t.Errorf("ByName unknown = %v", unknown)
	}
}
