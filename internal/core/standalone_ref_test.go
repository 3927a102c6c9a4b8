package core

import (
	"fmt"

	"github.com/servicelayernetworking/slate/internal/lp"
)

// standaloneOptimize is Problem.Optimize as it stood before every plan
// came out of ShardedOptimizer: NewOptimizer(p.Top, p.App,
// p.Config).Optimize(p.Demand, p.Profiles, version), the first call of a
// fresh standalone Optimizer, inlined to the path that call took (build,
// a cold solve in the Solver's own Workspace, extract). It is the oracle
// Problem.Optimize is held to (TestOneShotMatchesStandalone).
func standaloneOptimize(p *Problem, version uint64) (*Plan, error) {
	if p.Top == nil || p.App == nil {
		return nil, fmt.Errorf("core: optimizer missing topology or app")
	}
	if err := p.App.Validate(p.Top); err != nil {
		return nil, fmt.Errorf("core: invalid app: %w", err)
	}
	f, err := buildFormulation(p.Top, p.App, p.Config.normalized(), p.Demand, p.Profiles)
	if err != nil {
		return nil, err
	}
	sol, err := lp.NewSolver().Solve(lp.NewWorkspace(), f.model, nil)
	if err != nil {
		return nil, fmt.Errorf("core: solving routing LP: %w", err)
	}
	if err := f.statusErr(sol); err != nil {
		return nil, err
	}
	return f.extract(sol, p.Demand, version), nil
}
