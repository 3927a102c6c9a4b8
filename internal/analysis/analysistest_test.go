package analysis

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
)

// This file is the golden-file test harness for analyzers.

// Fixture loaders are shared across tests, one per module: the stdlib
// source importer caches GOROOT packages, and net/http is expensive to
// type-check, so every fixture run of a module reuses one loader.
var (
	fixtureMu      sync.Mutex
	fixtureLoaders = map[string]*Loader{}
)

// sharedLoader returns the module's fixture loader; the caller holds
// fixtureMu.
func sharedLoader(moduleDir string) (*Loader, error) {
	if l, ok := fixtureLoaders[moduleDir]; ok {
		return l, nil
	}
	l, err := NewLoader(moduleDir)
	if err == nil {
		fixtureLoaders[moduleDir] = l
	}
	return l, err
}

// wantRE extracts the quoted expectations of a "// want" comment.
var wantRE = regexp.MustCompile(`(?:\x60[^\x60]*\x60|"(?:[^"\\]|\\.)*")`)

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// checkFixture loads the fixture packages that the pattern dir names
// (relative to moduleDir: one directory, or "./..." for a fixture that
// is a module of its own), runs exactly one analyzer over them, and
// compares the diagnostics against the fixture's `// want "regexp"`
// comments: every diagnostic must be wanted on its line, and every want
// must be matched by a diagnostic. //slate:nolint filtering applies, so
// fixtures can also assert that suppression works (a nolint'd violation
// with no want), through the driver's own analyze step. It returns a
// list of complaints, empty on success.
func checkFixture(moduleDir, dir string, a *Analyzer) ([]string, error) {
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	loader, err := sharedLoader(moduleDir)
	if err != nil {
		return nil, err
	}
	dirs, err := expandPatterns(loader.ModuleDir, []string{dir})
	if err != nil {
		return nil, err
	}
	prog, typeErrs, err := loader.typeCheck(dirs)
	if err != nil {
		return nil, err
	}
	if len(prog.Units)+len(typeErrs) == 0 {
		return nil, fmt.Errorf("no Go package in %s", dir)
	}

	var complaints []string
	for _, d := range typeErrs {
		complaints = append(complaints, fmt.Sprintf("fixture does not type-check: %s", d))
	}

	// Gather wants across all units: filename -> line -> expectations.
	wants := make(map[string]map[int][]*expectation)
	for _, u := range prog.Units {
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
	analyze(prog, []*Analyzer{a}, func(d Diagnostic) { diags = append(diags, d) })

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
