package analysis

import (
	"path/filepath"
	"testing"
)

// loadFixtureProgram builds a Program over one fixture package.
func loadFixtureProgram(t *testing.T, dir string) *Program {
	t.Helper()
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	loader, err := sharedLoader(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	units, typeErrs, err := loader.typeCheck([]string{filepath.Join(repoRoot(t), filepath.FromSlash(dir))})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range typeErrs {
		t.Fatalf("fixture does not type-check: %s", d)
	}
	if len(units) == 0 {
		t.Fatalf("no Go package in %s", dir)
	}
	return &Program{Loader: loader, Units: units}
}

func TestCallGraph(t *testing.T) {
	prog := loadFixtureProgram(t, "testdata/lint/callgraph")
	g := prog.Graph()
	pkg := prog.Loader.ModulePath + "/testdata/lint/callgraph"

	node := func(id string) *Node {
		t.Helper()
		n := g.Nodes[FuncID(id)]
		if n == nil {
			t.Fatalf("no node %s; have %v", id, g.NodeIDs())
		}
		return n
	}
	names := map[string]string{
		"dispatch":    pkg + ".dispatch",
		"alpha.run":   "(" + pkg + ".alpha).run",
		"beta.run":    "(*" + pkg + ".beta).run",
		"shared":      pkg + ".shared",
		"methodValue": pkg + ".methodValue",
		"recurse":     pkg + ".recurse",
		"helperA":     pkg + ".helperA",
		"helperB":     pkg + ".helperB",
		"hotRoot":     pkg + ".hotRoot",
		"coldStop":    pkg + ".coldStop",
		"viaCold":     pkg + ".viaCold",
	}

	t.Run("interface dispatch", func(t *testing.T) {
		// dispatch's r.run() must fan out to every implementer.
		d := node(names["dispatch"])
		var saw []string
		for _, e := range d.Out {
			if e.Kind == EdgeIface {
				saw = append(saw, string(e.Callee.ID))
			}
		}
		want := map[string]bool{names["alpha.run"]: false, names["beta.run"]: false}
		for _, s := range saw {
			if _, ok := want[s]; ok {
				want[s] = true
			}
		}
		for id, hit := range want {
			if !hit {
				t.Errorf("dispatch has no iface edge to %s (got %v)", id, saw)
			}
		}
	})

	t.Run("method value is a ref edge", func(t *testing.T) {
		mv := node(names["methodValue"])
		found := false
		for _, e := range mv.Out {
			if e.Callee.ID == FuncID(names["alpha.run"]) && e.Kind == EdgeRef {
				found = true
			}
		}
		if !found {
			t.Errorf("methodValue has no ref edge to alpha.run: %+v", mv.Out)
		}
	})

	t.Run("hot reachability crosses interface dispatch", func(t *testing.T) {
		roots := g.Roots("hot")
		if len(roots) != 1 || roots[0].ID != FuncID(names["hotRoot"]) {
			t.Fatalf("Roots(hot) = %v", roots)
		}
		reached := g.Reachable(roots)
		for _, want := range []string{"hotRoot", "dispatch", "alpha.run", "beta.run", "shared"} {
			if _, ok := reached[node(names[want])]; !ok {
				t.Errorf("%s not reached from hotRoot", want)
			}
		}
		for _, not := range []string{"helperA", "helperB", "recurse", "coldStop", "viaCold"} {
			if _, ok := reached[node(names[not])]; ok {
				t.Errorf("%s wrongly reached from hotRoot", not)
			}
		}
		// The witness walk must terminate at the root.
		if w := WitnessRoot(reached, node(names["shared"])); w.ID != FuncID(names["hotRoot"]) {
			t.Errorf("WitnessRoot(shared) = %s, want hotRoot", w.ID)
		}
	})

	t.Run("recursion converges", func(t *testing.T) {
		reached := g.Reachable([]*Node{node(names["recurse"])})
		for _, want := range []string{"recurse", "helperA", "helperB"} {
			if _, ok := reached[node(names[want])]; !ok {
				t.Errorf("%s not reached from recurse", want)
			}
		}
	})

	t.Run("cold stops propagation", func(t *testing.T) {
		reached := g.Reachable([]*Node{node(names["viaCold"])})
		if _, ok := reached[node(names["coldStop"])]; ok {
			t.Error("coldStop entered despite //slate:cold")
		}
		if _, ok := reached[node(names["helperB"])]; ok {
			t.Error("helperB reached through the cold barrier")
		}
	})
}
