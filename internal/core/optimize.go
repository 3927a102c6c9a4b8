package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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
	// demand vector in the box around the estimate where each class's
	// demand may rise by up to DemandMargin (relative, e.g. 0.25 =
	// +25%). The box's worst case is every class at its upper corner, so
	// each pool's load row scales its flows by 1+DemandMargin. 0
	// disables — the formulation is then bit-identical to the nominal
	// one (differential-tested); a negative or non-finite margin is an
	// error.
	DemandMargin float64
}

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
	// placed counts the clusters the node's service is placed in, and
	// pool indexes the first of its pools in formulation.pools: the
	// node's k-th flow variable runs on pool pool+k%placed.
	placed, pool int
}

// ruleGroup lays out the rules of one (callee service, class), one per
// source cluster, over formulation.flow. ruleNodes[node0:node1] are the
// class's call nodes at that service, in DFS order, and
// ruleDests[dest0:dest1] are the service's placed clusters in ascending
// cluster ID order, each given by its position among them. The flow of
// node n from source cluster i to the destination at position q is then
// flow[n][i*placed+q]: a non-root node has a variable for every source
// cluster and every placed destination, in (i, j) order.
type ruleGroup struct {
	node0, node1, dest0, dest1 int32
}

// flowVar is one flow variable of a call node: the rate of its calls
// whose caller ran in cluster i and that execute in cluster j (indices
// into formulation.clusters).
type flowVar struct {
	i, j int
	v    lp.Var
}

// linkTerm remembers one flow variable's term in its pool's load row:
// the coefficient is the node's mean service time over the pool's
// reference service time, and the latter may change when profiles are
// refit, so formulation.update recomputes it per tick.
type linkTerm struct {
	v   lp.Var
	mst float64 // node mean service time, seconds
}

// linkScale converts one link term's flow to standard requests: the
// node's mean service time over the pool's reference service time.
func linkScale(lt linkTerm, prof PoolProfile) float64 {
	if prof.RefServiceTime > 0 {
		return lt.mst / prof.RefServiceTime.Seconds()
	}
	return 1
}

// rowCoef is a link term's coefficient in its pool's load row: its
// standard-request scale at the box's worst case, every class's demand
// raised by the robust margin (exactly linkScale at margin 0).
func (f *formulation) rowCoef(lt linkTerm, prof PoolProfile) float64 {
	return (1 + f.cfg.DemandMargin) * linkScale(lt, prof)
}

// poolRef ties one service pool to its PWL segment variables and its
// load row.
type poolRef struct {
	key       PoolKey
	profile   PoolProfile
	segs      []queuemodel.Segment
	segVars   []lp.Var
	con       int // load row index in the model
	linkTerms []linkTerm
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
// costs/widths, load row scale coefficients) instead of rebuilding —
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
	// The rule layout extract reads the routing rules by: ruleGroups index
	// the flat ruleNodes and ruleDests.
	ruleGroups           []ruleGroup
	ruleNodes, ruleDests []int32
}

// Optimize builds and solves the routing LP from scratch, as the first
// solve of a one-shard ShardedOptimizer (which a control loop should hold
// instead, to warm-start); version is stamped onto the produced table.
func (p *Problem) Optimize(version uint64) (*Plan, error) {
	if err := checkInputs(p.Top, p.App); err != nil {
		return nil, err
	}
	return newShardedOptimizer(p.Top, p.App, p.Config, 0, false).Optimize(p.Demand, p.Profiles, version)
}

// checkInputs rejects a topology and app no LP can be built over.
func checkInputs(top *topology.Topology, app *appgraph.App) error {
	if top == nil || app == nil {
		return fmt.Errorf("core: optimizer missing topology or app")
	}
	if err := app.Validate(top); err != nil {
		return fmt.Errorf("core: invalid app: %w", err)
	}
	return nil
}

// demandErr rejects a negative, NaN or infinite demand entry.
func demandErr(class string, c topology.ClusterID, d float64) error {
	if d < 0 {
		return fmt.Errorf("core: negative demand for class %q in %s", class, c)
	}
	if math.IsNaN(d) || math.IsInf(d, 0) {
		return fmt.Errorf("core: non-finite demand %v for class %q in %s", d, class, c)
	}
	return nil
}

// buildFormulation constructs the routing LP. Demand and profiles seed
// the mutable pieces (rhs, PWL costs, load scales); everything else is
// structural.
func buildFormulation(top *topology.Topology, app *appgraph.App, cfg Config, demand Demand, profiles Profiles) (*formulation, error) {
	f, terms, err := newFormulation(top, app, cfg, demand)
	if err != nil {
		return nil, err
	}
	model := f.model

	// Pools and their PWL delay segments. Services are visited in
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
			pr := &poolRef{key: key, profile: prof, segs: segs}
			for _, seg := range segs {
				v := model.AddVar(cfg.LatencyWeight * seg.Slope)
				if err := model.SetUpper(v, seg.Width); err != nil {
					return nil, f.named(err)
				}
				pr.segVars = append(pr.segVars, v)
			}
			f.pools = append(f.pools, pr)
			f.poolIdx[key] = pr
		}
	}
	for ni := range f.nodes {
		f.nodes[ni].pool = firstPool[f.nodes[ni].node.Service]
	}
	f.layRules()
	// One row per pool: its load — the flows of the nodes at s into j,
	// scaled to standard requests — fills its PWL delay segments,
	// Σ scale·x − Σ seg = 0, so queueing delay is priced and the
	// utilization cap enforced at that load. In robust mode (Kulfi-style
	// semi-oblivious routing) the scale carries the box's worst case,
	// (1+DemandMargin)·scale, while the flow variables (and the published
	// routing fractions) stay defined over the nominal demand. The box is
	// per class, not per (class, arrival cluster): conservation mixes
	// arrival origins at depth ≥ 1, so a class surges as a whole — which
	// also matches how flash crowds present (correlated across a class's
	// clusters).
	for ni, nr := range f.nodes {
		mst := nr.node.Work.MeanServiceTime.Seconds()
		for k, fl := range f.flow[ni] {
			pr := f.pools[nr.pool+k%nr.placed]
			pr.linkTerms = append(pr.linkTerms, linkTerm{v: fl.v, mst: mst})
		}
	}
	for _, pr := range f.pools {
		terms = terms[:0]
		for _, lt := range pr.linkTerms {
			terms = append(terms, lp.Term{Var: lt.v, Coef: f.rowCoef(lt, pr.profile)})
		}
		for _, v := range pr.segVars {
			terms = append(terms, lp.Term{Var: v, Coef: -1})
		}
		pr.con = model.NumConstraints()
		model.MustConstraint(terms, 0)
	}
	f.setFlowCosts()
	return f, nil
}

// newFormulation lays out the routing LP's flow variables and adds the
// rows no pool enters: the roots' demand rows and the conservation rows.
// It returns the slice the rows' terms were gathered in, for the pool
// rows to gather theirs in too: the model keeps a sorted copy of each.
func newFormulation(top *topology.Topology, app *appgraph.App, cfg Config, demand Demand) (*formulation, []lp.Term, error) {
	if err := checkInputs(top, app); err != nil {
		return nil, nil, err
	}
	if m := cfg.DemandMargin; !(m >= 0) || math.IsInf(m, 1) {
		return nil, nil, fmt.Errorf("core: robust demand margin %v is not finite and non-negative", m)
	}
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
		for _, c := range clusters {
			if placedIn(nr.node.Service, c) {
				f.nodes[ni].placed++
			}
		}
		n := f.nodes[ni].placed // a root's: one per arrival cluster
		if nr.parent != -1 {
			n *= len(clusters)
		}
		f.flow[ni] = make([]flowVar, 0, n)
		for i, ci := range clusters {
			if nr.parent == -1 {
				// Root: executes where demand arrives; a single variable
				// x[n][i][i] carries the demand (no choice). Skip clusters
				// without the frontend; validated below.
				if placedIn(nr.node.Service, ci) {
					f.flow[ni] = append(f.flow[ni], flowVar{i, i, model.AddVar(0)})
				}
				continue
			}
			for j, cj := range clusters {
				if !placedIn(nr.node.Service, cj) {
					continue
				}
				f.flow[ni] = append(f.flow[ni], flowVar{i, j, model.AddVar(0)})
			}
		}
	}

	var terms []lp.Term

	// Root demand constraints.
	for ni, nr := range f.nodes {
		if nr.parent != -1 {
			continue
		}
		placed := f.flow[ni] // one variable per cluster holding the frontend
		for i, ci := range clusters {
			d := demand[nr.class.Name][ci]
			if err := demandErr(nr.class.Name, ci, d); err != nil {
				return nil, nil, err
			}
			if len(placed) == 0 || placed[0].i != i {
				if d > 0 {
					return nil, nil, fmt.Errorf("core: demand for class %q arrives in %s but frontend %q is not placed there",
						nr.class.Name, ci, nr.node.Service)
				}
				f.demands = append(f.demands, demandRef{class: nr.class.Name, svc: nr.node.Service, ci: ci, con: -1})
				continue
			}
			f.demands = append(f.demands, demandRef{class: nr.class.Name, svc: nr.node.Service, ci: ci, con: model.NumConstraints()})
			terms = append(terms[:0], lp.Term{Var: placed[0].v, Coef: 1})
			model.MustConstraint(terms, d)
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
			if terms = f.conserveTerms(terms[:0], ni, j); len(terms) > 0 {
				model.MustConstraint(terms, 0)
			}
		}
	}

	return f, terms, nil
}

// setFlowCosts sets the flows' linear objective terms: cross-cluster
// network latency and egress cost.
func (f *formulation) setFlowCosts() {
	clusters, top, cfg := f.clusters, f.top, f.cfg
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
				f.model.SetObj(fl.v, obj)
			}
		}
	}
	// No per-class service-time term is added: scaling pool load by
	// τ/τ̄ already makes heavy classes consume proportionally more PWL
	// capacity and pay proportionally more aggregate delay, which prices
	// their longer service time; adding Δτ again would double-count it.
}

// conserveTerms appends to terms the conservation row of non-root node
// ni in cluster j: its flows out of j less Count times its parent's flows
// into j. Clusters where neither runs have no row.
func (f *formulation) conserveTerms(terms []lp.Term, ni, j int) []lp.Term {
	nr := f.nodes[ni]
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
	return terms
}

// named gives an lp error the names of the formulation's rows and
// columns in place of their indices; any other error passes through.
// The model stores no names, so they are made here, on the failure path.
func (f *formulation) named(err error) error {
	if le, ok := err.(*lp.Error); ok {
		return le.Named(f.rowName, f.colName)
	}
	return err
}

// rowName names constraint r: demand[class][cluster],
// conserve[class#node][cluster] or load[pool]. The rows lie in that
// order.
func (f *formulation) rowName(r int) string {
	conserve := 0 // the first conservation row follows the demand rows
	for _, dr := range f.demands {
		if dr.con == r {
			return fmt.Sprintf("demand[%s][%s]", dr.class, dr.ci)
		}
		if dr.con >= 0 {
			conserve++
		}
	}
	for _, pr := range f.pools {
		if pr.con == r {
			return fmt.Sprintf("load[%s]", pr.key)
		}
	}
	var terms []lp.Term
	for ni, nr := range f.nodes {
		if nr.parent == -1 {
			continue
		}
		for j, cj := range f.clusters {
			if terms = f.conserveTerms(terms[:0], ni, j); len(terms) == 0 {
				continue
			}
			if conserve == r {
				return fmt.Sprintf("conserve[%s#%d][%s]", nr.class.Name, ni, cj)
			}
			conserve++
		}
	}
	return fmt.Sprintf("#%d", r)
}

// colName names variable v: the flow x[class#node][from->to] or the
// PWL segment seg[pool][k].
func (f *formulation) colName(v int) string {
	for ni, nr := range f.nodes {
		for _, fl := range f.flow[ni] {
			if int(fl.v) == v {
				return fmt.Sprintf("x[%s#%d][%s->%s]", nr.class.Name, ni, f.clusters[fl.i], f.clusters[fl.j])
			}
		}
	}
	for _, pr := range f.pools {
		for si, sv := range pr.segVars {
			if int(sv) == v {
				return fmt.Sprintf("seg[%s][%d]", pr.key, si)
			}
		}
	}
	return fmt.Sprintf("#%d", v)
}

// layRules compiles the rule layout. A class's call nodes are
// contiguous in f.nodes, so each (service, class) group is gathered
// within its class's run.
func (f *formulation) layRules() {
	for lo := 0; lo < len(f.nodes); {
		hi := lo
		for hi < len(f.nodes) && f.nodes[hi].class == f.nodes[lo].class {
			hi++
		}
		for a := lo; a < hi; a++ {
			svc := f.nodes[a].node.Service
			if f.nodes[a].parent == -1 || slices.ContainsFunc(f.nodes[lo:a], func(nr nodeRef) bool {
				return nr.parent != -1 && nr.node.Service == svc
			}) {
				continue // a root, or the group is already laid out
			}
			g := ruleGroup{node0: int32(len(f.ruleNodes)), dest0: int32(len(f.ruleDests))}
			for b := a; b < hi; b++ {
				if f.nodes[b].parent != -1 && f.nodes[b].node.Service == svc {
					f.ruleNodes = append(f.ruleNodes, int32(b))
				}
			}
			dests := f.flow[a][:f.nodes[a].placed] // source cluster 0's
			for q := range dests {
				f.ruleDests = append(f.ruleDests, int32(q))
			}
			slices.SortFunc(f.ruleDests[g.dest0:], func(p, q int32) int {
				return cmp.Compare(f.clusters[dests[p].j], f.clusters[dests[q].j])
			})
			g.node1, g.dest1 = int32(len(f.ruleNodes)), int32(len(f.ruleDests))
			f.ruleGroups = append(f.ruleGroups, g)
		}
		lo = hi
	}
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
	plan := &Plan{
		Table:                routing.NewTable(version, f.rules(sol)),
		Objective:            sol.Objective,
		PredictedMeanLatency: make(map[string]time.Duration),
		Loads:                make([]PoolLoad, len(f.pools)),
	}

	// Planned pool loads — nominal, Σ scale·x over the pool's link terms
	// — and predicted sojourns (nonlinear model at those standard loads),
	// in pool order until the latencies below have read them.
	for p, pr := range f.pools {
		var std float64
		for _, lt := range pr.linkTerms {
			std += linkScale(lt, pr.profile) * sol.Value(lt.v)
		}
		capStd := pr.profile.Model.Capacity()
		util := 0.0
		if capStd > 0 {
			util = std / capStd
		}
		plan.Loads[p] = PoolLoad{
			Key:              pr.key,
			StdRPS:           std,
			Utilization:      util,
			PredictedSojourn: pr.profile.Model.Sojourn(std),
		}
	}

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
			for k, fl := range f.flow[ni] {
				x := sol.Value(fl.v)
				if x <= 0 {
					continue
				}
				p := nr.pool + k%nr.placed
				pr := f.pools[p]
				soj := pr.profile.Model.SojournSeconds(plan.Loads[p].StdRPS)
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
	sortLoads(plan.Loads)
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

// rules reads the routing rules off a solution, through the rule
// layout: for each (callee service, class, source cluster), weights
// proportional to the solved flows into each destination, summed over
// the group's nodes in DFS order and leaving out flows at or below 1e-9.
// Root nodes are pinned and need no rule. A rule whose weights are not
// finite, or overflow their sum, is dropped. The rules share one array
// of clusters and one of weights, counted out before they are written.
func (f *formulation) rules(sol *lp.Solution) map[routing.Key]routing.Distribution {
	nRules, nDests := 0, 0
	for _, g := range f.ruleGroups {
		for i := range f.clusters {
			n := 0
			for _, q := range f.ruleDests[g.dest0:g.dest1] {
				if _, ok := f.destFlow(sol, g, i, q); ok {
					n++
				}
			}
			nDests += n
			nRules += min(n, 1)
		}
	}
	out := make(map[routing.Key]routing.Distribution, nRules)
	clusters := make([]topology.ClusterID, nDests)
	weights := make([]float64, nDests)
	at := 0
	for _, g := range f.ruleGroups {
		first := f.ruleNodes[g.node0]
		nr := f.nodes[first]
		for i, ci := range f.clusters {
			end := at
			for _, q := range f.ruleDests[g.dest0:g.dest1] {
				if w, ok := f.destFlow(sol, g, i, q); ok {
					clusters[end], weights[end] = f.clusters[f.flow[first][q].j], w
					end++
				}
			}
			if end == at {
				continue
			}
			d, err := routing.NewSortedDistribution(clusters[at:end:end], weights[at:end:end])
			if err != nil {
				continue // the next rule writes over its slots
			}
			out[routing.Key{Service: string(nr.node.Service), Class: nr.class.Name, Cluster: ci}] = d
			at = end
		}
	}
	return out
}

// destFlow sums the flows of a rule group from source cluster i into
// the destination at position q, and reports whether any flow there
// exceeds 1e-9.
func (f *formulation) destFlow(sol *lp.Solution, g ruleGroup, i int, q int32) (float64, bool) {
	var sum float64
	ok := false
	for _, n := range f.ruleNodes[g.node0:g.node1] {
		x := sol.Value(f.flow[n][i*f.nodes[n].placed+int(q)].v)
		if x <= 1e-9 {
			continue
		}
		sum += x
		ok = true
	}
	return sum, ok
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
