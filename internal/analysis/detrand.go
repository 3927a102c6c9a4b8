package analysis

import (
	"go/ast"
	"strconv"
	"strings"
)

// Detrand enforces deterministic randomness. The paper's Fig. 4/5
// comparisons against Waterfall and the A/B policy sweeps in
// internal/simrun are only meaningful when two runs under the same seed
// see identical arrivals, service demands and routing draws —
// internal/sim.RNG exists precisely for that (per-component derived
// streams). Two things break it:
//
//  1. The global math/rand source (rand.Float64(), rand.Intn(), ...):
//     nondeterministic across runs since Go 1.20 auto-seeds it. Flagged
//     everywhere, including tests.
//  2. Any math/rand use in non-test simulation/routing code, even a
//     locally seeded rand.New: private *rand.Rand streams bypass the
//     scenario seed's derivation tree, so one component's draws perturb
//     another's. Flagged outside internal/sim (the sanctioned wrapper);
//     seeded rand.New in _test.go files is tolerated.
var Detrand = &Analyzer{
	Name: "detrand",
	Doc:  "flags global math/rand and private math/rand streams in simulation/routing code; use internal/sim.RNG",
	Run:  runDetrand,
}

// globalRandFns are math/rand package-level functions backed by the
// process-global, auto-seeded source.
var globalRandFns = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true, "N": true,
}

func runDetrand(pass *Pass) {
	simPath := pass.Prog.Loader.ModulePath + "/internal/sim"
	for _, u := range pass.Prog.Units {
		for _, f := range u.Files {
			// Rule 2: math/rand import in non-test code outside internal/sim.
			inTest := pass.InTestFile(f.Pos())
			if !inTest && u.ImportPath != simPath {
				for _, imp := range f.Imports {
					if path, err := strconv.Unquote(imp.Path.Value); err == nil && isMathRand(path) {
						pass.Reportf(imp.Pos(), "%s in simulation/routing code bypasses the scenario seed; use internal/sim.RNG (seedable, derivable per-component streams)", path)
					}
				}
			}
			// Rule 1: calls on the global source, anywhere.
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(u.Info, call)
				if fn == nil || fn.Pkg() == nil || !isMathRand(fn.Pkg().Path()) {
					return true
				}
				// Methods (on *rand.Rand etc.) have a receiver-qualified
				// FullName; package-level globals do not.
				if !strings.Contains(fn.FullName(), ")") && globalRandFns[fn.Name()] {
					pass.Reportf(call.Pos(), "%s.%s uses the process-global auto-seeded source and is nondeterministic across runs; draw from a seeded internal/sim.RNG stream", fn.Pkg().Path(), fn.Name())
				}
				return true
			})
		}
	}
}

func isMathRand(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}
