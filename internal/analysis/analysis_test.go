package analysis

import (
	"bytes"
	"os"
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
	complaints, err := checkFixture(repoRoot(t), filepath.Join("testdata", "lint", a.Name), a)
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

// testonlyModule is the testonly fixture: a module of its own, because
// only a run over a whole module may report a name as unused.
func testonlyModule(t *testing.T) string {
	return filepath.Join(repoRoot(t), "testdata", "lint", "testonly")
}

// TestTestonlyFixture checks testonly over the fixture module's ./...,
// and that a run over only part of it reports nothing: it cannot see
// every user.
func TestTestonlyFixture(t *testing.T) {
	t.Run("whole module", func(t *testing.T) {
		complaints, err := checkFixture(testonlyModule(t), "./...", Testonly)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range complaints {
			t.Error(c)
		}
	})
	t.Run("partial patterns", func(t *testing.T) {
		var out bytes.Buffer
		n, err := Run(Options{Dir: testonlyModule(t), Patterns: []string{"./internal/...", "./cmd/..."}, Analyzers: []*Analyzer{Testonly}}, &out)
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Errorf("a partial run reported %d finding(s):\n%s", n, out.String())
		}
	})
}

// TestTypeCheckWhole: the program is Whole, the gate testonly reports
// behind, only when its dirs are every package directory of the module
// and every unit type-checked.
func TestTypeCheckWhole(t *testing.T) {
	whole := func(t *testing.T, moduleDir string, patterns ...string) (bool, int) {
		t.Helper()
		l, dirs, err := Options{Dir: moduleDir, Patterns: patterns}.open()
		if err != nil {
			t.Fatal(err)
		}
		prog, diags, err := l.typeCheck(dirs)
		if err != nil {
			t.Fatal(err)
		}
		return prog.Whole, len(diags)
	}
	t.Run("every package", func(t *testing.T) {
		if ok, _ := whole(t, testonlyModule(t), "./..."); !ok {
			t.Error("a ./... run is not Whole")
		}
	})
	t.Run("a package left out", func(t *testing.T) {
		if ok, _ := whole(t, testonlyModule(t), "./internal/...", "./benchmark/..."); ok {
			t.Error("a run without cmd/ is Whole")
		}
	})
	t.Run("a type error", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module example.com/broken\n\ngo 1.22\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(filepath.Join(dir, "p"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "p", "p.go"), []byte("package p\n\nvar X int = \"x\"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		ok, diags := whole(t, dir, "./...")
		if diags == 0 {
			t.Fatal("the type error went unreported")
		}
		if ok {
			t.Error("a run that dropped a unit with type errors is Whole")
		}
	})
}

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
	// testonly reports only over a whole module: its fixture is one.
	var whole bytes.Buffer
	wholeFindings, err := Run(Options{Dir: testonlyModule(t)}, &whole)
	if err != nil {
		t.Fatalf("Run over the testonly module: %v", err)
	}
	if wholeLines := strings.Split(strings.TrimRight(whole.String(), "\n"), "\n"); len(wholeLines) != wholeFindings {
		t.Errorf("findings=%d but %d output lines over the testonly module", wholeFindings, len(wholeLines))
	} else {
		lines = append(lines, wholeLines...)
	}
	for _, a := range All() {
		if !strings.Contains(out.String()+whole.String(), "["+a.Name+"]") {
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
