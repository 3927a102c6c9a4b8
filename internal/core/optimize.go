package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/lp"
	"github.com/servicelayernetworking/slate/internal/queuemodel"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// Config tunes the optimizer's objective and linearization.
type Config struct {
	// LatencyWeight scales the latency term (aggregate request-seconds
	// of latency per second). Zero with a zero CostWeight defaults to
	// latency-only (LatencyWeight 1).
	LatencyWeight float64
	// CostWeight scales the egress cost term ($ per second). The paper:
	// "if an administrator values cost over latency, an optimal request
	// routing system should reflect it by keeping more traffic local".
	CostWeight float64
	// BreakFracs overrides the PWL utilization breakpoints
	// (queuemodel.DefaultBreakFracs when nil). The last fraction is the
	// utilization cap.
	BreakFracs []float64
	// DemandMargin arms robust optimization (Kulfi-style semi-oblivious
	// routing): the plan is feasible and queueing-priced for every
	// demand vector in an uncertainty set around the estimate, where
	// each class's demand may rise by up to DemandMargin (relative,
	// e.g. 0.25 = +25%). 0 disables — the formulation is then
	// bit-identical to the nominal one (differential-tested).
	DemandMargin float64
	// Budget is the Bertsimas–Sim Γ: at most Budget classes surge to
	// their margin simultaneously per pool. 0 (or ≥ the pool's class
	// count) means the full box — every class at its upper corner.
	// Only meaningful with DemandMargin > 0.
	Budget int
}

// robustActive reports whether the uncertainty-set machinery is built.
// Margin 0 must add zero variables and constraints so the robust
// config is provably identical to the nominal path when off.
func (c Config) robustActive() bool { return c.DemandMargin > 0 }

func (c Config) normalized() Config {
	if c.LatencyWeight == 0 && c.CostWeight == 0 { //slate:nolint floatcmp -- zero means "weight unset": assigned literally, never computed
		c.LatencyWeight = 1
	}
	return c
}

// Problem is one optimization instance.
type Problem struct {
	Top      *topology.Topology
	App      *appgraph.App
	Demand   Demand
	Profiles Profiles
	Config   Config
}

// PoolLoad reports the optimizer's planned load on one pool.
type PoolLoad struct {
	Key PoolKey
	// StdRPS is the planned load in standard requests/second (classes
	// weighted by relative service time).
	StdRPS float64
	// Utilization is StdRPS over the pool's standard capacity.
	Utilization float64
	// PredictedSojourn is the queueing model's sojourn time at StdRPS.
	PredictedSojourn time.Duration
}

// Plan is the optimizer's output.
type Plan struct {
	Table *routing.Table
	// Objective is the solved LP objective (weighted latency + cost).
	Objective float64
	// PredictedMeanLatency estimates each class's mean end-to-end
	// latency under the plan (sequential call-tree approximation, using
	// the nonlinear queueing model at the planned loads).
	PredictedMeanLatency map[string]time.Duration
	// EgressPerSecond is the planned egress cost in $/s.
	EgressPerSecond float64
	// EgressBytesPerSecond is the planned cross-cluster bytes/s.
	EgressBytesPerSecond float64
	// Loads lists planned per-pool loads, keyed deterministically.
	Loads []PoolLoad
}

// nodeRef identifies a call node within a class tree by DFS index.
type nodeRef struct {
	class *appgraph.Class
	node  *appgraph.CallNode
	idx   int
	// parent is the DFS index of the parent node, -1 for roots.
	parent int
}

// flowVar is one flow variable of a call node: the rate of its calls
// whose caller ran in cluster i and that execute in cluster j (indices
// into formulation.clusters).
type flowVar struct {
	i, j int
	v    lp.Var
}

// linkTerm remembers one flow variable's contribution to a pool's
// loadlink constraint: the coefficient is the node's mean service time
// over the pool's reference service time, and the latter may change when
// profiles are refit, so Optimizer.update recomputes it per tick. class
// attributes the flow for the robust per-class surge constraints.
type linkTerm struct {
	v     lp.Var
	mst   float64 // node mean service time, seconds
	class string
}

// linkScale converts one link term's flow to standard requests: the
// node's mean service time over the pool's reference service time.
func linkScale(lt linkTerm, prof PoolProfile) float64 {
	if prof.RefServiceTime > 0 {
		return lt.mst / prof.RefServiceTime.Seconds()
	}
	return 1
}

// robRef ties one (pool, class) robust surge constraint to its dual
// variable q and constraint row, for in-place coefficient updates when
// profiles are refit.
type robRef struct {
	class string
	qVar  lp.Var
	con   int
}

// poolRef ties one service pool to its LP variables and constraints.
// zVar/robs/gamma exist only when Config.robustActive(): they carry the
// Bertsimas–Sim dualization of the demand uncertainty set (see the
// comment at buildFormulation's robust block).
type poolRef struct {
	key       PoolKey
	profile   PoolProfile
	segs      []queuemodel.Segment
	segVars   []lp.Var
	loadVar   lp.Var
	linkCon   int // loadlink constraint index in the model
	linkTerms []linkTerm
	zVar      lp.Var
	robs      []robRef
	gamma     float64 // effective Γ: min(Budget or ∞, classes on the pool)
}

// demandRef ties one (root class, arrival cluster) to its demand
// constraint; con is -1 where the frontend is not placed (demand there
// must stay zero).
type demandRef struct {
	class string
	svc   appgraph.ServiceID
	ci    topology.ClusterID
	con   int
}

// formulation is a built routing LP plus the metadata needed to mutate
// it in place for a new tick (demand right-hand sides, PWL segment
// costs/widths, loadlink scale coefficients) instead of rebuilding —
// the model's structure depends only on topology, app placement, and
// config, none of which change between ticks.
type formulation struct {
	top      *topology.Topology
	app      *appgraph.App
	cfg      Config // normalized
	clusters []topology.ClusterID
	nodes    []nodeRef
	// flow[n] is node n's flow variables in (i, j) order. Its consumers
	// build LP rows and accumulate floats — both order-sensitive.
	flow    [][]flowVar
	model   *lp.Model
	pools   []*poolRef
	poolIdx map[PoolKey]*poolRef
	demands []demandRef
}

// Optimize builds and solves the routing LP from scratch and extracts
// routing rules: the first (cold) solve of a fresh Optimizer. version is
// stamped onto the produced table. A control loop re-solving every tick
// should hold an Optimizer, which caches the formulation and warm-starts
// the solver.
func (p *Problem) Optimize(version uint64) (*Plan, error) {
	return NewOptimizer(p.Top, p.App, p.Config).Optimize(p.Demand, p.Profiles, version)
}

// buildFormulation constructs the routing LP. Demand and profiles seed
// the mutable pieces (rhs, PWL costs, load scales); everything else is
// structural.
func buildFormulation(top *topology.Topology, app *appgraph.App, cfg Config, demand Demand, profiles Profiles) (*formulation, error) {
	f := &formulation{
		top:      top,
		app:      app,
		cfg:      cfg,
		clusters: top.ClusterIDs(),
		model:    lp.NewModel(),
	}
	clusters := f.clusters

	// Flatten call trees.
	for _, cl := range app.Classes {
		var visit func(n *appgraph.CallNode, parent int)
		visit = func(n *appgraph.CallNode, parent int) {
			idx := len(f.nodes)
			f.nodes = append(f.nodes, nodeRef{class: cl, node: n, idx: idx, parent: parent})
			for _, ch := range n.Children {
				visit(ch, idx)
			}
		}
		visit(cl.Root, -1)
	}

	model := f.model

	// Flow variables x[n][i][j]: rate of node-n calls whose caller ran in
	// cluster i, executed in cluster j. Only for j where the service is
	// placed. Root nodes are pinned to the arrival cluster (the user hits
	// the local ingress; routing starts at the first internal hop).
	f.flow = make([][]flowVar, len(f.nodes))
	placedIn := func(s appgraph.ServiceID, c topology.ClusterID) bool {
		return app.Services[s].PlacedIn(c)
	}
	for ni, nr := range f.nodes {
		for i, ci := range clusters {
			if nr.parent == -1 {
				// Root: executes where demand arrives; a single variable
				// x[n][i][i] carries the demand (no choice). Skip clusters
				// without the frontend; validated below.
				if placedIn(nr.node.Service, ci) {
					v := model.AddVar(fmt.Sprintf("x[%s#%d][%s->%s]", nr.class.Name, ni, ci, ci), 0)
					f.flow[ni] = append(f.flow[ni], flowVar{i, i, v})
				}
				continue
			}
			for j, cj := range clusters {
				if !placedIn(nr.node.Service, cj) {
					continue
				}
				v := model.AddVar(fmt.Sprintf("x[%s#%d][%s->%s]", nr.class.Name, ni, ci, cj), 0)
				f.flow[ni] = append(f.flow[ni], flowVar{i, j, v})
			}
		}
	}

	// Root demand constraints.
	for ni, nr := range f.nodes {
		if nr.parent != -1 {
			continue
		}
		placed := f.flow[ni] // one variable per cluster holding the frontend
		for i, ci := range clusters {
			d := demand[nr.class.Name][ci]
			if d < 0 {
				return nil, fmt.Errorf("core: negative demand for class %q in %s", nr.class.Name, ci)
			}
			if len(placed) == 0 || placed[0].i != i {
				if d > 0 {
					return nil, fmt.Errorf("core: demand for class %q arrives in %s but frontend %q is not placed there",
						nr.class.Name, ci, nr.node.Service)
				}
				f.demands = append(f.demands, demandRef{class: nr.class.Name, svc: nr.node.Service, ci: ci, con: -1})
				continue
			}
			f.demands = append(f.demands, demandRef{class: nr.class.Name, svc: nr.node.Service, ci: ci, con: model.NumConstraints()})
			model.MustConstraint(
				fmt.Sprintf("demand[%s][%s]", nr.class.Name, ci),
				[]lp.Term{{Var: placed[0].v, Coef: 1}}, lp.EQ, d)
			placed = placed[1:]
		}
	}

	// Conservation: for each non-root node n with parent q, for each
	// cluster j: sum_dst x[n][j][dst] = Count_n * sum_i x[q][i][j].
	for ni, nr := range f.nodes {
		if nr.parent == -1 {
			continue
		}
		for j := range clusters {
			var terms []lp.Term
			for _, fl := range f.flow[ni] {
				if fl.i == j {
					terms = append(terms, lp.Term{Var: fl.v, Coef: 1})
				}
			}
			for _, fl := range f.flow[nr.parent] {
				if fl.j == j {
					terms = append(terms, lp.Term{Var: fl.v, Coef: -float64(nr.node.Count)})
				}
			}
			if len(terms) == 0 {
				continue
			}
			model.MustConstraint(
				fmt.Sprintf("conserve[%s#%d][%s]", nr.class.Name, ni, clusters[j]),
				terms, lp.EQ, 0)
		}
	}

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
	sort.Slice(sortedSids, func(i, j int) bool { return sortedSids[i] < sortedSids[j] })
	for _, sid := range sortedSids {
		svc := app.Services[sid]
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
			pr := &poolRef{key: key, profile: prof, segs: segs}
			pr.loadVar = model.AddVar(fmt.Sprintf("load[%s]", key), 0)
			for si, seg := range segs {
				v := model.AddVar(fmt.Sprintf("seg[%s][%d]", key, si), cfg.LatencyWeight*seg.Slope)
				model.SetUpper(v, seg.Width)
				pr.segVars = append(pr.segVars, v)
			}
			f.pools = append(f.pools, pr)
			f.poolIdx[key] = pr
		}
	}
	// load[s,j] = sum over nodes at s of flows into j, scaled to standard
	// requests; and load = sum of segment vars.
	loadTerms := make(map[PoolKey][]lp.Term)
	for ni, nr := range f.nodes {
		mst := nr.node.Work.MeanServiceTime.Seconds()
		for _, fl := range f.flow[ni] {
			key := PoolKey{Service: nr.node.Service, Cluster: clusters[fl.j]}
			pr := f.poolIdx[key]
			scale := 1.0
			if pr.profile.RefServiceTime > 0 {
				scale = mst / pr.profile.RefServiceTime.Seconds()
			}
			loadTerms[key] = append(loadTerms[key], lp.Term{Var: fl.v, Coef: scale})
			pr.linkTerms = append(pr.linkTerms, linkTerm{v: fl.v, mst: mst, class: nr.class.Name})
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
	//	z_p + q_{p,c} ≥ margin·load_{p,c}(x)           (rob[p][c])
	//	Σ_s seg_{p,s} = load_p + Γ_p·z_p + Σ_c q_{p,c}  (segments[p])
	//
	// so queueing delay is priced — and the utilization cap enforced —
	// at the worst-case load in the set, while the flow variables (and
	// the published routing fractions) stay defined over the nominal
	// demand. Γ ≥ the pool's class count degenerates to the box set's
	// upper corner. Granularity is per class, not per (class, arrival
	// cluster): conservation mixes arrival origins at depth ≥ 1, so a
	// class surges as a whole — which also matches how flash crowds
	// present (correlated across a class's clusters).
	robust := cfg.robustActive()
	if robust {
		for _, pr := range f.pools {
			classes := make([]string, 0, len(app.Classes))
			seen := make(map[string]bool)
			for _, lt := range pr.linkTerms {
				if !seen[lt.class] {
					seen[lt.class] = true
					classes = append(classes, lt.class)
				}
			}
			if len(classes) == 0 {
				continue // placed but never called: no load to protect
			}
			sort.Strings(classes)
			pr.zVar = model.AddVar(fmt.Sprintf("zrob[%s]", pr.key), 0)
			for _, class := range classes {
				pr.robs = append(pr.robs, robRef{
					class: class,
					qVar:  model.AddVar(fmt.Sprintf("qrob[%s][%s]", pr.key, class), 0),
				})
			}
			g := cfg.Budget
			if g <= 0 || g > len(classes) {
				g = len(classes)
			}
			pr.gamma = float64(g)
		}
	}

	for _, pr := range f.pools {
		terms := append([]lp.Term{{Var: pr.loadVar, Coef: -1}}, loadTerms[pr.key]...)
		pr.linkCon = model.NumConstraints()
		model.MustConstraint(fmt.Sprintf("loadlink[%s]", pr.key), terms, lp.EQ, 0)
		segTerms := []lp.Term{{Var: pr.loadVar, Coef: -1}}
		for _, v := range pr.segVars {
			segTerms = append(segTerms, lp.Term{Var: v, Coef: 1})
		}
		if len(pr.robs) > 0 {
			segTerms = append(segTerms, lp.Term{Var: pr.zVar, Coef: -pr.gamma})
			for _, rr := range pr.robs {
				segTerms = append(segTerms, lp.Term{Var: rr.qVar, Coef: -1})
			}
		}
		model.MustConstraint(fmt.Sprintf("segments[%s]", pr.key), segTerms, lp.EQ, 0)
		for ri := range pr.robs {
			rr := &pr.robs[ri]
			rterms := []lp.Term{{Var: pr.zVar, Coef: 1}, {Var: rr.qVar, Coef: 1}}
			for _, lt := range pr.linkTerms {
				if lt.class != rr.class {
					continue
				}
				rterms = append(rterms, lp.Term{Var: lt.v, Coef: -cfg.DemandMargin * linkScale(lt, pr.profile)})
			}
			rr.con = model.NumConstraints()
			model.MustConstraint(fmt.Sprintf("rob[%s][%s]", pr.key, rr.class), rterms, lp.GE, 0)
		}
	}

	// Per-flow linear objective terms: cross-cluster network latency and
	// egress cost, plus the class-specific service-time correction (the
	// PWL delay prices all requests at the pool's reference service
	// time; a class whose service time differs by Δτ adds Δτ per call).
	for ni, nr := range f.nodes {
		for _, fl := range f.flow[ni] {
			ci, cj := clusters[fl.i], clusters[fl.j]
			var obj float64
			if ci != cj {
				rtt := top.RTT(ci, cj).Seconds()
				obj += cfg.LatencyWeight * rtt
				bytes := nr.node.Work.RequestBytes + nr.node.Work.ResponseBytes
				obj += cfg.CostWeight * top.EgressCost(ci, cj, bytes)
			}
			if obj != 0 { //slate:nolint floatcmp -- sparsity: only exactly-zero coefficients are skippable
				model.SetObj(fl.v, obj)
			}
		}
	}
	// No per-class service-time term is added: scaling pool load by
	// τ/τ̄ already makes heavy classes consume proportionally more PWL
	// capacity and pay proportionally more aggregate delay, which prices
	// their longer service time; adding Δτ again would double-count it.
	return f, nil
}

// statusErr maps a non-optimal solve status to the caller-facing error.
func (f *formulation) statusErr(sol *lp.Solution) error {
	switch sol.Status {
	case lp.Optimal:
		return nil
	case lp.Infeasible:
		return fmt.Errorf("core: routing LP infeasible: offered demand exceeds modeled capacity (utilization cap %.0f%%)",
			lastFrac(f.cfg.BreakFracs)*100)
	default:
		return fmt.Errorf("core: routing LP %v", sol.Status)
	}
}

// extract turns an optimal solution into a Plan.
func (f *formulation) extract(sol *lp.Solution, demand Demand, version uint64) *Plan {
	clusters := f.clusters

	// Extract routing rules: for each (callee service, class, src
	// cluster), weights proportional to solved flows. Root nodes are
	// pinned and need no rule.
	type ruleAgg map[topology.ClusterID]float64
	ruleFlows := make(map[routing.Key]ruleAgg)
	for ni, nr := range f.nodes {
		if nr.parent == -1 {
			continue
		}
		for _, fl := range f.flow[ni] {
			x := sol.Value(fl.v)
			if x <= 1e-9 {
				continue
			}
			k := routing.Key{
				Service: string(nr.node.Service),
				Class:   nr.class.Name,
				Cluster: clusters[fl.i],
			}
			if ruleFlows[k] == nil {
				ruleFlows[k] = make(ruleAgg)
			}
			ruleFlows[k][clusters[fl.j]] += x
		}
	}
	rules := make(map[routing.Key]routing.Distribution, len(ruleFlows))
	for k, agg := range ruleFlows {
		d, err := routing.NewDistribution(agg)
		if err != nil {
			continue
		}
		rules[k] = d
	}
	table := routing.NewTable(version, rules)

	plan := &Plan{
		Table:                table,
		Objective:            sol.Objective,
		PredictedMeanLatency: make(map[string]time.Duration),
	}

	// Planned pool loads and predicted sojourns (nonlinear model at the
	// solved standard loads).
	poolStd := make(map[PoolKey]float64)
	for _, pr := range f.pools {
		std := sol.Value(pr.loadVar)
		poolStd[pr.key] = std
		capStd := pr.profile.Model.Capacity()
		util := 0.0
		if capStd > 0 {
			util = std / capStd
		}
		plan.Loads = append(plan.Loads, PoolLoad{
			Key:              pr.key,
			StdRPS:           std,
			Utilization:      util,
			PredictedSojourn: pr.profile.Model.Sojourn(std),
		})
	}
	sortLoads(plan.Loads)

	// Predicted per-class mean end-to-end latency and egress totals.
	for _, cl := range f.app.Classes {
		total := demand.Total(cl.Name)
		if total <= 0 {
			continue
		}
		var agg float64 // request-weighted latency sum (req-seconds/sec)
		for ni, nr := range f.nodes {
			if nr.class != cl {
				continue
			}
			for _, fl := range f.flow[ni] {
				x := sol.Value(fl.v)
				if x <= 0 {
					continue
				}
				key := PoolKey{Service: nr.node.Service, Cluster: clusters[fl.j]}
				pr := f.poolIdx[key]
				soj := pr.profile.Model.SojournSeconds(poolStd[key])
				if math.IsInf(soj, 1) {
					soj = pr.profile.Model.SojournSeconds(0.999 * pr.profile.Model.Capacity())
				}
				// Rescale the standard sojourn's service component to the
				// class's own service time.
				if pr.profile.RefServiceTime > 0 {
					soj += nr.node.Work.MeanServiceTime.Seconds() - pr.profile.RefServiceTime.Seconds()
				}
				lat := soj
				if fl.i != fl.j {
					lat += f.top.RTT(clusters[fl.i], clusters[fl.j]).Seconds()
				}
				agg += x * lat
			}
		}
		plan.PredictedMeanLatency[cl.Name] = time.Duration(agg / total * float64(time.Second))
	}
	for ni, nr := range f.nodes {
		for _, fl := range f.flow[ni] {
			if fl.i == fl.j {
				continue
			}
			x := sol.Value(fl.v)
			if x <= 0 {
				continue
			}
			bytes := float64(nr.node.Work.RequestBytes + nr.node.Work.ResponseBytes)
			plan.EgressBytesPerSecond += x * bytes
			plan.EgressPerSecond += x * f.top.EgressCost(clusters[fl.i], clusters[fl.j], int64(bytes))
		}
	}
	return plan
}

func lastFrac(fracs []float64) float64 {
	if len(fracs) == 0 {
		return queuemodel.MaxUtilization
	}
	return fracs[len(fracs)-1]
}

// sortLoads orders loads by pool, service then cluster. Pool keys are
// unique, so the order is total.
func sortLoads(loads []PoolLoad) {
	slices.SortFunc(loads, func(a, b PoolLoad) int {
		return cmp.Or(cmp.Compare(a.Key.Service, b.Key.Service), cmp.Compare(a.Key.Cluster, b.Key.Cluster))
	})
}
