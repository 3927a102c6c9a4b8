package core

import (
	"fmt"
	"math"

	"github.com/servicelayernetworking/slate/internal/routing"
)

// assign maps an externally produced routing table onto the
// formulation's variable space: root flows carry the demand, each
// deeper flow splits its caller's rate by the table's weights, and each
// pool's PWL segment variables fill greedily with its load row's sum —
// the box's worst case in robust mode — overfilling the last segment,
// so a table that exceeds a pool's utilization cap surfaces as an
// upper-bound violation in Model.CheckFeasible rather than being
// silently clipped. It errors on
// tables that lose flow (weight pointing at clusters without replicas,
// or no usable rule for a triple that carries traffic). The demand must
// be the one the formulation was built or last updated with, which
// rejected negative demand and demand at a cluster without the frontend.
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
				if d := demand[nr.class.Name][ci]; d > 0 {
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
			load += f.rowCoef(lt, pr.profile) * x[lt.v]
		}
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
	f, err := buildFormulation(p.Top, p.App, p.Config.normalized(), p.Demand, p.Profiles)
	if err != nil {
		return 0, err
	}
	x, err := f.assign(table, p.Demand)
	if err != nil {
		return 0, err
	}
	if err := f.model.CheckFeasible(x, 1e-6); err != nil {
		return 0, fmt.Errorf("core: table infeasible: %w", f.named(err))
	}
	return f.model.EvalObjective(x), nil
}
