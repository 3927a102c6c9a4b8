package core

import (
	"fmt"
	"math"
	"sort"

	"github.com/servicelayernetworking/slate/internal/routing"
)

// assign maps an externally produced routing table onto the
// formulation's variable space: root flows carry the demand, each
// deeper flow splits its caller's rate by the table's weights, pool
// load variables sum their link terms, and PWL segment variables fill
// greedily — overfilling the last segment, so a table that exceeds a
// pool's utilization cap surfaces as an upper-bound violation in
// Model.CheckFeasible rather than being silently clipped. It errors on
// tables that lose flow (weight pointing at clusters without replicas,
// or no usable rule for a triple that carries traffic).
func (f *formulation) assign(table *routing.Table, demand Demand) ([]float64, error) {
	C := len(f.clusters)
	x := make([]float64, f.model.NumVars())
	exec := make([]float64, len(f.nodes)*C)
	for ni, nr := range f.nodes {
		row := exec[ni*C : (ni+1)*C]
		// flows is the rest of the node's (i, j)-ordered variables: each
		// cluster i below takes its own run off the front.
		flows := f.flow[ni]
		if nr.parent == -1 {
			for i, ci := range f.clusters {
				placed := len(flows) > 0 && flows[0].i == i
				d := demand[nr.class.Name][ci]
				if d < 0 {
					return nil, fmt.Errorf("core: negative demand for class %q in %s", nr.class.Name, ci)
				}
				if d > 0 {
					if !placed {
						return nil, fmt.Errorf("core: demand for class %q arrives in %s but frontend %q is not placed there",
							nr.class.Name, ci, nr.node.Service)
					}
					x[flows[0].v] = d
					row[i] = d
				}
				if placed {
					flows = flows[1:]
				}
			}
			continue
		}
		parentRow := exec[nr.parent*C : (nr.parent+1)*C]
		count := float64(nr.node.Count)
		for i := range f.clusters {
			n := 0
			for n < len(flows) && flows[n].i == i {
				n++
			}
			from := flows[:n]
			flows = flows[n:]
			rate := count * parentRow[i]
			if rate <= 0 {
				continue
			}
			dist := table.Lookup(string(nr.node.Service), nr.class.Name, f.clusters[i])
			var sumW float64
			for _, fl := range from {
				sumW += dist.Weight(f.clusters[fl.j])
			}
			if sumW < 1-1e-6 {
				return nil, fmt.Errorf("core: table loses flow for %s class %q from %s: only %.6f of its weight lands on placed clusters",
					nr.node.Service, nr.class.Name, f.clusters[i], sumW)
			}
			for _, fl := range from {
				if w := dist.Weight(f.clusters[fl.j]); w > 0 {
					amt := rate * w / sumW
					x[fl.v] += amt
					row[fl.j] += amt
				}
			}
		}
	}
	for _, pr := range f.pools {
		var load float64
		for _, lt := range pr.linkTerms {
			load += linkScale(lt, pr.profile) * x[lt.v]
		}
		x[pr.loadVar] = load
		// Robust formulations fill segments to the worst-case load:
		// load + Γ·z + Σq with the duals at the exact inner maximum
		// (the Γ largest per-class margin increments), so the assigned
		// point satisfies rob[p][c] tightly and prices queueing exactly
		// as the LP would for the same flows.
		load += f.robustExtra(pr, x)
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

// robustExtra fills pool pr's robust dual variables in x for the flows
// already assigned and returns the worst-case load increment
// Γ·z + Σ_c q_c. The inner maximization over the budget set picks the
// Γ classes with the largest margin increments m_c = margin·load_c;
// the optimal duals are z = the (Γ+1)-th largest m_c (0 if every class
// fits the budget) and q_c = max(0, m_c − z), which makes
// Γ·z + Σ_c q_c equal the sum of the top-Γ increments exactly. No-op
// (returns 0) when the formulation is not robust.
func (f *formulation) robustExtra(pr *poolRef, x []float64) float64 {
	if len(pr.robs) == 0 {
		return 0
	}
	m := make([]float64, len(pr.robs))
	for ri := range pr.robs {
		var load float64
		for _, lt := range pr.linkTerms {
			if lt.class != pr.robs[ri].class {
				continue
			}
			load += linkScale(lt, pr.profile) * x[lt.v]
		}
		m[ri] = f.cfg.DemandMargin * load
	}
	// z = (Γ+1)-th largest increment. robs are sorted by class name, so
	// ties resolve deterministically regardless of magnitude order.
	sorted := append([]float64(nil), m...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	var z float64
	if g := int(pr.gamma); g < len(sorted) {
		z = sorted[g]
	}
	x[pr.zVar] = z
	extra := pr.gamma * z
	for ri := range pr.robs {
		q := m[ri] - z
		if q < 0 {
			q = 0
		}
		x[pr.robs[ri].qVar] = q
		extra += q
	}
	return extra
}

// EvaluateTable scores an externally produced routing table — e.g. one
// built by the local-search optimizer, or hand-written — under the
// problem's exact LP objective. It returns an error if the table is
// infeasible for the problem (lost flow, violated conservation, or a
// pool pushed past its utilization cap), and the LP objective value
// otherwise, directly comparable to Plan.Objective from a simplex
// solve of the same problem.
func EvaluateTable(p *Problem, table *routing.Table) (float64, error) { //slate:nolint testonly -- the table check of ROADMAP item 1 calls it
	if table == nil {
		return 0, fmt.Errorf("core: nil table")
	}
	o := NewOptimizer(p.Top, p.App, p.Config)
	if err := o.ensure(p.Demand, p.Profiles); err != nil {
		return 0, err
	}
	x, err := o.f.assign(table, p.Demand)
	if err != nil {
		return 0, err
	}
	if err := o.f.model.CheckFeasible(x, 1e-6); err != nil {
		return 0, fmt.Errorf("core: table infeasible: %w", err)
	}
	return o.f.model.EvalObjective(x), nil
}
