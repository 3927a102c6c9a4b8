package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/lp"
	"github.com/servicelayernetworking/slate/internal/queuemodel"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// The two-row reference: the routing LP as it stood while every pool
// had two rows — a load column tied to the flows by a loadlink row and
// to the PWL segments by a segments row — and robust mode priced the
// demand box through the Bertsimas–Sim dualization, a z column per pool
// and a q column and rob row per (pool, class). buildTwoRows' pool
// section, the pool loop of assign and the dual fill are those of commit
// 6ea695d, kept verbatim but for their identifiers; the flows, the
// demand and conservation rows and the flow costs, which have not
// changed, come out of the live formulation's code.
// TestOneRowMatchesTwoRows (onerow_test.go) holds the one-row LP to it
// through MatchTwoRows.

// twoRows is a reference formulation: the live formulation's flows,
// demand and conservation rows and rule layout, and its own pools.
type twoRows struct {
	*formulation
	pools []*twoRowPool
}

// twoRowPool is a pool of the reference: its segments and link terms,
// the class of each link term, its load column and loadlink row, and
// in robust mode its dual columns, its surge rows and Γ, the number of
// its classes that may surge at once.
type twoRowPool struct {
	*poolRef
	classes []string
	loadCol lp.Var
	linkRow int
	zCol    lp.Var
	surges  []twoRowRob
	surging float64
}

// twoRowRob ties one (pool, class) robust surge row to its dual column
// and to the surplus column that makes the row an equality.
type twoRowRob struct {
	class string
	qCol  lp.Var
	sCol  lp.Var
	con   int
}

// twoRowBudget is the Bertsimas–Sim Γ the reference dualizes: 0, the
// whole box, as every figure and experiment with a margin had it.
const twoRowBudget = 0

// buildTwoRows builds the two-row reference of the routing LP.
func buildTwoRows(top *topology.Topology, app *appgraph.App, cfg Config, demand Demand, profiles Profiles) (*twoRows, error) {
	f, terms, err := newFormulation(top, app, cfg, demand)
	if err != nil {
		return nil, err
	}
	t := &twoRows{formulation: f}
	model := f.model

	// Pool load linking and PWL delay segments. Services are visited in
	// sorted order so the LP's column order — and hence which optimal
	// vertex a degenerate solve lands on — is a deterministic function
	// of the problem, not of map iteration. The sharded optimizer's
	// differential tests rely on this: a sub-formulation built from an
	// equal service set must be the same LP as the monolithic one.
	f.poolIdx = make(map[PoolKey]*poolRef)
	sortedSids := make([]appgraph.ServiceID, 0, len(app.Services))
	for sid := range app.Services {
		sortedSids = append(sortedSids, sid)
	}
	slices.Sort(sortedSids)
	firstPool := make(map[appgraph.ServiceID]int, len(sortedSids))
	for _, sid := range sortedSids {
		svc := app.Services[sid]
		firstPool[sid] = len(f.pools)
		for _, c := range svc.Clusters(top) {
			key := PoolKey{Service: sid, Cluster: c}
			prof, ok := profiles.Get(sid, c)
			if !ok {
				return nil, fmt.Errorf("core: no latency profile for pool %s", key)
			}
			segs, err := queuemodel.Linearize(prof.Model, cfg.BreakFracs)
			if err != nil {
				return nil, fmt.Errorf("core: linearizing pool %s: %w", key, err)
			}
			pr := &twoRowPool{poolRef: &poolRef{key: key, profile: prof, segs: segs}}
			pr.loadCol = model.AddVar(0)
			for _, seg := range segs {
				v := model.AddVar(cfg.LatencyWeight * seg.Slope)
				if err := model.SetUpper(v, seg.Width); err != nil {
					return nil, err
				}
				pr.segVars = append(pr.segVars, v)
			}
			f.pools = append(f.pools, pr.poolRef)
			t.pools = append(t.pools, pr)
			f.poolIdx[key] = pr.poolRef
		}
	}
	for ni := range f.nodes {
		f.nodes[ni].pool = firstPool[f.nodes[ni].node.Service]
	}
	f.layRules()
	// load[s,j] = sum over nodes at s of flows into j, scaled to standard
	// requests; and load = sum of segment vars.
	for ni, nr := range f.nodes {
		mst := nr.node.Work.MeanServiceTime.Seconds()
		for k, fl := range f.flow[ni] {
			pr := t.pools[nr.pool+k%nr.placed]
			pr.linkTerms = append(pr.linkTerms, linkTerm{v: fl.v, mst: mst})
			pr.classes = append(pr.classes, nr.class.Name)
		}
	}

	// Robust counterpart (Kulfi-style semi-oblivious routing with a
	// Bertsimas–Sim budget): every class's demand may rise by up to
	// DemandMargin (relative), at most Γ classes simultaneously per
	// pool. The inner maximization over that set — max Σ_c m_{p,c}·u_c
	// with 0 ≤ u_c ≤ 1, Σ_c u_c ≤ Γ, where m_{p,c} = margin·load_{p,c}(x)
	// — dualizes into one z_p ≥ 0 per pool and one q_{p,c} ≥ 0 per
	// (pool, class):
	//
	//	z_p + q_{p,c} − s_{p,c} = margin·load_{p,c}(x)  (rob[p][c])
	//	Σ_s seg_{p,s} = load_p + Γ_p·z_p + Σ_c q_{p,c}  (segments[p])
	//
	// with a surplus s_{p,c} ≥ 0 per rob row, so queueing delay is priced
	// — and the utilization cap enforced — at the worst-case load in the
	// set, while the flow variables (and the published routing
	// fractions) stay defined over the nominal demand. Γ ≥ the pool's
	// class count degenerates to the box set's upper corner. Granularity
	// is per class, not per (class, arrival cluster): conservation mixes
	// arrival origins at depth ≥ 1, so a class surges as a whole — which
	// also matches how flash crowds present (correlated across a class's
	// clusters).
	robust := cfg.DemandMargin > 0
	if robust {
		for _, pr := range t.pools {
			classes := make([]string, 0, len(app.Classes))
			seen := make(map[string]bool)
			for _, class := range pr.classes {
				if !seen[class] {
					seen[class] = true
					classes = append(classes, class)
				}
			}
			if len(classes) == 0 {
				continue // placed but never called: no load to protect
			}
			sort.Strings(classes)
			pr.zCol = model.AddVar(0)
			for _, class := range classes {
				pr.surges = append(pr.surges, twoRowRob{class: class, qCol: model.AddVar(0), sCol: model.AddVar(0)})
			}
			g := twoRowBudget
			if g <= 0 || g > len(classes) {
				g = len(classes)
			}
			pr.surging = float64(g)
		}
	}

	for _, pr := range t.pools {
		terms = append(terms[:0], lp.Term{Var: pr.loadCol, Coef: -1})
		for _, lt := range pr.linkTerms {
			terms = append(terms, lp.Term{Var: lt.v, Coef: linkScale(lt, pr.profile)})
		}
		pr.linkRow = model.NumConstraints()
		model.MustConstraint(terms, 0)
		terms = append(terms[:0], lp.Term{Var: pr.loadCol, Coef: -1})
		for _, v := range pr.segVars {
			terms = append(terms, lp.Term{Var: v, Coef: 1})
		}
		if len(pr.surges) > 0 {
			terms = append(terms, lp.Term{Var: pr.zCol, Coef: -pr.surging})
			for _, rr := range pr.surges {
				terms = append(terms, lp.Term{Var: rr.qCol, Coef: -1})
			}
		}
		model.MustConstraint(terms, 0)
		for ri := range pr.surges {
			rr := &pr.surges[ri]
			terms = append(terms[:0], lp.Term{Var: pr.zCol, Coef: 1}, lp.Term{Var: rr.qCol, Coef: 1}, lp.Term{Var: rr.sCol, Coef: -1})
			for k, lt := range pr.linkTerms {
				if pr.classes[k] != rr.class {
					continue
				}
				terms = append(terms, lp.Term{Var: lt.v, Coef: -cfg.DemandMargin * linkScale(lt, pr.profile)})
			}
			rr.con = model.NumConstraints()
			model.MustConstraint(terms, 0)
		}
	}

	f.setFlowCosts()
	return t, nil
}

// assign maps a routing table onto the reference's variable space. The
// flows are the live assign's, which has not changed; the pools are
// filled as the two-row LP had them: the load column, the duals at the
// exact inner maximum, and the segments greedily to the worst case.
func (t *twoRows) assign(table *routing.Table, demand Demand) ([]float64, error) {
	x, err := t.formulation.assign(table, demand)
	if err != nil {
		return nil, err
	}
	for _, pr := range t.pools {
		var load float64
		for _, lt := range pr.linkTerms {
			load += linkScale(lt, pr.profile) * x[lt.v]
		}
		x[pr.loadCol] = load
		// Robust formulations fill segments to the worst-case load:
		// load + Γ·z + Σq with the duals at the exact inner maximum
		// (the Γ largest per-class margin increments), so the assigned
		// point satisfies rob[p][c] tightly and prices queueing exactly
		// as the LP would for the same flows.
		load += t.dualFill(pr, x)
		rem := load
		for si, v := range pr.segVars {
			if si == len(pr.segVars)-1 {
				x[v] = rem
				break
			}
			take := math.Min(rem, pr.segs[si].Width)
			x[v] = take
			rem -= take
		}
	}
	return x, nil
}

// dualFill fills pool pr's robust dual variables in x for the flows
// already assigned and returns the worst-case load increment
// Γ·z + Σ_c q_c. The inner maximization over the budget set picks the
// Γ classes with the largest margin increments m_c = margin·load_c;
// the optimal duals are z = the (Γ+1)-th largest m_c (0 if every class
// fits the budget) and q_c = max(0, m_c − z), which makes
// Γ·z + Σ_c q_c equal the sum of the top-Γ increments exactly. No-op
// (returns 0) when the formulation is not robust.
func (t *twoRows) dualFill(pr *twoRowPool, x []float64) float64 {
	if len(pr.surges) == 0 {
		return 0
	}
	m := make([]float64, len(pr.surges))
	for ri := range pr.surges {
		var load float64
		for k, lt := range pr.linkTerms {
			if pr.classes[k] != pr.surges[ri].class {
				continue
			}
			load += linkScale(lt, pr.profile) * x[lt.v]
		}
		m[ri] = t.cfg.DemandMargin * load
	}
	// z = (Γ+1)-th largest increment. surges are sorted by class name, so
	// ties resolve deterministically regardless of magnitude order.
	sorted := append([]float64(nil), m...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	var z float64
	if g := int(pr.surging); g < len(sorted) {
		z = sorted[g]
	}
	x[pr.zCol] = z
	extra := pr.surging * z
	for ri := range pr.surges {
		q := m[ri] - z
		if q < 0 {
			q = 0
		}
		x[pr.surges[ri].qCol] = q
		x[pr.surges[ri].sCol] = z + q - m[ri]
		extra += q
	}
	return extra
}

// MatchTwoRows plans p with Problem.Optimize, on the one-row LP, and
// solves the two-row reference of the same problem cold. They agree when
// both fail alike, or both solve with objectives within 1e-9 relative
// and the plan's table, scored on the reference LP, is feasible there
// and within 1e-9 relative of the reference optimum: a degenerate LP may
// land on another optimal vertex, so the tables themselves may differ.
// It returns how they disagree ("" when they agree) and whether the
// problem solved.
func MatchTwoRows(p *Problem) (mismatch string, solved bool) {
	plan, err := p.Optimize(1)
	ref, refErr := buildTwoRows(p.Top, p.App, p.Config.normalized(), p.Demand, p.Profiles)
	var sol *lp.Solution
	if refErr == nil {
		sol, refErr = lp.NewSolver().Solve(lp.NewWorkspace(), ref.model, nil)
		if refErr == nil {
			refErr = ref.statusErr(sol)
		}
	}
	if errors.Is(err, lp.ErrIterLimit) && errors.Is(refErr, lp.ErrIterLimit) {
		return "", false
	}
	if err != nil || refErr != nil {
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			return fmt.Sprintf("one row: %v; two rows: %v", err, refErr), false
		}
		return "", false
	}
	within := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-9*math.Abs(want)
	}
	if !within(plan.Objective, sol.Objective) {
		return fmt.Sprintf("objective %v, two rows %v", plan.Objective, sol.Objective), true
	}
	x, err := ref.assign(plan.Table, p.Demand)
	if err == nil {
		err = ref.model.CheckFeasible(x, 1e-6)
	}
	if err != nil {
		return fmt.Sprintf("table infeasible on the two-row LP: %v", err), true
	}
	if score := ref.model.EvalObjective(x); !within(score, sol.Objective) {
		return fmt.Sprintf("table scores %v on the two-row LP, its optimum %v", score, sol.Objective), true
	}
	return "", true
}
