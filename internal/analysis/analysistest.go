package analysis

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
)

// This file is the golden-file test harness for analyzers. It lives in
// the non-test sources so the package exports one canonical fixture
// runner, but it is only reached from _test.go files.

// fixtureLoader is shared across tests: the stdlib source importer
// caches GOROOT packages, and net/http is expensive to type-check, so
// every fixture run reuses one loader.
var (
	fixtureOnce   sync.Once
	fixtureShared *Loader
	fixtureErr    error
	fixtureMu     sync.Mutex
)

func sharedLoader(moduleDir string) (*Loader, error) {
	fixtureOnce.Do(func() {
		fixtureShared, fixtureErr = NewLoader(moduleDir)
	})
	return fixtureShared, fixtureErr
}

// wantRE extracts the quoted expectations of a "// want" comment.
var wantRE = regexp.MustCompile(`(?:\x60[^\x60]*\x60|"(?:[^"\\]|\\.)*")`)

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// CheckFixture loads the fixture package in dir (relative to
// moduleDir), runs exactly one analyzer over it, and compares the
// diagnostics against the fixture's `// want "regexp"` comments: every
// diagnostic must be wanted on its line, and every want must be matched
// by a diagnostic. //slate:nolint filtering applies, so fixtures can
// also assert that suppression works (a nolint'd violation with no
// want), through the driver's own analyze step.
// It returns a list of complaints, empty on success.
func CheckFixture(moduleDir, dir string, a *Analyzer) ([]string, error) {
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	loader, err := sharedLoader(moduleDir)
	if err != nil {
		return nil, err
	}
	units, typeErrs, err := loader.typeCheck([]string{filepath.Join(moduleDir, dir)})
	if err != nil {
		return nil, err
	}
	if len(units)+len(typeErrs) == 0 {
		return nil, fmt.Errorf("no Go package in %s", dir)
	}

	var complaints []string
	for _, d := range typeErrs {
		complaints = append(complaints, fmt.Sprintf("fixture does not type-check: %s", d))
	}

	// Gather wants across all units: filename -> line -> expectations.
	wants := make(map[string]map[int][]*expectation)
	for _, u := range units {
		for _, f := range u.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "want ")
					if !ok {
						continue
					}
					pos := loader.position(c.Pos())
					for _, q := range wantRE.FindAllString(rest, -1) {
						pat := strings.Trim(q, "`")
						if strings.HasPrefix(q, `"`) {
							if unq, err := strconv.Unquote(q); err == nil {
								pat = unq
							}
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							return nil, fmt.Errorf("%s: bad want pattern %s: %v", pos, q, err)
						}
						m := wants[pos.Filename]
						if m == nil {
							m = make(map[int][]*expectation)
							wants[pos.Filename] = m
						}
						m[pos.Line] = append(m[pos.Line], &expectation{re: re})
					}
				}
			}
		}
	}

	var diags []Diagnostic
	analyze(loader, units, []*Analyzer{a}, func(d Diagnostic) { diags = append(diags, d) })

	for _, d := range diags {
		found := false
		for _, exp := range wants[d.Pos.Filename][d.Pos.Line] {
			if exp.re.MatchString(d.Message) {
				exp.matched = true
				found = true
				break
			}
		}
		if !found {
			complaints = append(complaints, fmt.Sprintf("unexpected diagnostic: %s", d))
		}
	}
	for file, lines := range wants {
		for line, exps := range lines {
			for _, exp := range exps {
				if !exp.matched {
					complaints = append(complaints, fmt.Sprintf("%s:%d: no diagnostic matched want %q", file, line, exp.re))
				}
			}
		}
	}
	return complaints, nil
}
