// Package search implements an anytime local-search optimizer over
// routing tables — the incremental counterpart of the exact LP in
// internal/core.
//
// The optimizer's state is the routing table itself: one weight vector
// per (service, class, source-cluster) triple over the service's
// placement clusters. Starting from the incumbent table it repeatedly
// moves weight within the most violated triple — a max-heap of
// per-triple violation scores, where a triple's score is the first-order
// objective gain available by shifting its weight from the most
// expensive destination pool to the cheapest (pool overload dominates
// via a penalty slope, link-guided in the SRTE-LS sense) — and re-scores
// only the triples a committed move actually touched. Every intermediate
// state is a complete, publishable table, so the search can stop at any
// move budget; LowerBound certifies how far the current objective can be
// from the LP optimum.
//
// The objective mirrors the core formulation exactly: convex PWL
// aggregate-delay cost per pool (the same queuemodel.Linearize segments
// the LP prices) plus linear cross-cluster RTT and egress terms. Loads
// beyond a pool's utilization cap are charged a penalty slope chosen to
// dominate every real cost, so restoring feasibility and descending the
// objective are the same greedy loop.
//
// The move loop is allocation-free (//slate:hot, pinned by
// AllocsPerRun); Reset and Table are the cold endpoints that bind a tick
// and extract the result. Everything is deterministic: flat arrays in
// fixed index order, heap ties broken by triple index, no wall-clock
// reads — a budget of N moves from the same state yields bit-identical
// tables on any machine at any GOMAXPROCS.
package search

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/queuemodel"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// Params weights the objective; the zero value defaults to
// latency-only, matching core.Config.
type Params struct {
	// LatencyWeight scales the latency term (PWL pool delay + RTT).
	LatencyWeight float64
	// CostWeight scales the egress cost term.
	CostWeight float64
}

func (p Params) normalized() Params {
	if p.LatencyWeight == 0 && p.CostWeight == 0 { //slate:nolint floatcmp -- zero means "weight unset": assigned literally, never computed
		p.LatencyWeight = 1
	}
	return p
}

// PoolParams is one (service, cluster) pool's cost model for a tick:
// the reference service time that converts class rates to standard
// load, and the convex PWL delay segments over standard load.
type PoolParams struct {
	// Ref is the reference service time in seconds (≤ 0 means loads are
	// raw rates, mirroring the LP's load-link scale).
	Ref float64
	// Segs is the convex PWL delay approximation (queuemodel.Linearize).
	Segs []queuemodel.Segment
}

// node is one flattened call-tree node. Nodes are laid out class by
// class in preorder, so a parent's index is always below its children's.
type node struct {
	cls    int
	svc    int
	parent int // node index; -1 for roots
	pair   int // rule pair index; -1 for roots (pinned to arrival cluster)
	count  float64
	mst    float64 // mean service time, seconds
	bytes  int64   // request + response bytes (egress pricing)
	linOff int     // into lin: C×nDst entries (non-root only)
	scOff  int     // into scale: nDst entries (non-root only)
}

// pair is one (class, service) rule family: C rules (one per source
// cluster), each a weight vector over the service's placements.
type pair struct {
	cls     int
	svc     int
	nDst    int
	dstOff  int // into dstC/dstPool: nDst entries
	wOff    int // into w: C×nDst entries
	nodeOff int // into pairNodes
	nodeN   int
}

// classInfo is one traffic class's contiguous node range.
type classInfo struct {
	name string
	n0   int // first node index (the root)
	n1   int // one past the last node
}

// pool is one (service, cluster) replica pool.
type pool struct {
	svc    int
	cl     int // cluster index
	ref    float64
	segOff int
	segN   int
	width  float64 // total standard capacity (sum of segment widths)
}

// Result reports one Run.
type Result struct {
	// Evals is the number of candidate-move evaluations consumed (the
	// unit the budget is expressed in); Moves counts committed moves.
	Evals, Moves int
	// Objective is the exact internal objective of the final table
	// (recomputed from scratch at exit, so incremental drift is zero).
	// It includes the overload penalty when Feasible is false.
	Objective float64
	// LowerBound is a certified lower bound on the optimal objective of
	// this instance (routing-independent relaxation; see LowerBound).
	LowerBound float64
	// Gap is (Objective − LowerBound)/Objective, clamped to ≥ 0 — an
	// upper bound on the true optimality gap when Feasible.
	Gap float64
	// Feasible reports whether every pool load is within its PWL
	// capacity (the LP's utilization cap).
	Feasible bool
	// Converged reports that a full polish sweep found no improving
	// move — more budget would not change the table.
	Converged bool
}

// Sentinel errors for the hot demand setter.
var (
	// ErrUnknownKey reports a SetDemand class or cluster the optimizer
	// was not built for.
	ErrUnknownKey = errors.New("search: unknown class or cluster")
	// ErrUnplaced reports positive demand arriving at a cluster where
	// the class's root service has no replicas.
	ErrUnplaced = errors.New("search: demand arrives where the frontend is not placed")
)

// Optimizer is a reusable local-search instance for a fixed topology
// and application. Reset binds a tick's demand, pool costs, and
// incumbent table; Run descends; Table extracts the current best table.
// Not safe for concurrent use.
type Optimizer struct {
	top *topology.Topology
	par Params

	clusters []topology.ClusterID
	C        int

	svcIDs   []appgraph.ServiceID
	svcNames []string
	svcIdx   map[appgraph.ServiceID]int

	classes  []classInfo
	classIdx map[string]int
	nodes    []node
	children []int // flat child lists
	childOff []int // per node: children[childOff[n]:childOff[n+1]]

	pairs     []pair
	pairNodes []int
	dstC      []int // per pair slot: destination cluster index
	dstPool   []int // per pair slot: pool index
	lin       []float64
	maxDst    int

	pools  []pool
	poolAt []int // dense (svc, cluster) → pool index, -1 unplaced

	// Per-pool → rules with a slot on that pool (rescored when the
	// pool's marginal cost changes segment).
	prOff  []int
	prList []int32

	// --- per-tick state (Reset) --------------------------------------
	w       []float64 // rule weights, per pair: C×nDst
	scale   []float64 // standard-load scale per (node, slot)
	segW    []float64 // segment widths (standard load)
	segS    []float64 // segment slopes, LatencyWeight applied
	segEnd  []float64 // cumulative width through each segment
	penalty float64   // overload slope; dominates every real marginal cost

	inflow  []float64 // node×C: rate of node calls executed per cluster
	linNode []float64 // per node: linear (RTT+egress) cost of its flows
	load    []float64 // per pool: standard load
	cost    []float64 // per pool: PWL(+penalty) delay cost
	segIdx  []int     // per pool: segment the next unit of load lands in
	obj     float64

	lowerBound float64

	// --- scratch (allocation-free move loop) -------------------------
	epoch      int64
	nodeStamp  []int64
	sInflow    []float64
	sLinNode   []float64
	touched    []int32
	touchedN   int
	poolStamp  []int64
	poolDelta  []float64
	sCost      []float64
	sSeg       []int
	dirtyPools []int32
	dirtyN     int
	savedWA    float64
	savedWB    float64

	rEpoch    int64
	ruleStamp []int64
	rescore   []int32
	rescoreN  int

	// stale marks pending SetDemand writes not yet folded into the
	// objective, loads, and lower bound (see refresh).
	stale bool

	mc   []float64 // per-slot marginal cost scratch
	rate []float64 // per-slot direct standard-load rate scratch
	cand [8]float64

	// heap over rules (pair×C), ordered by score desc, index asc
	score  []float64
	hp     []int32
	hpPos  []int32
	nRules int

	// lower-bound scratch (cold)
	lbWork    []float64
	lbAllRoot []bool
	lbShallow []bool
	lbSeen    []bool
	lbLin     []float64
	lbPS      []float64
	lbRoot    []float64
	lbSegs    []lbSeg
	totalRate []float64
}

type lbSeg struct{ slope, width float64 }

// New builds the structural half of an optimizer — flattened call
// trees, rule triples, pools, linear cost tables — which depends only
// on topology, app, and weights. Per-tick inputs bind via Reset.
func New(top *topology.Topology, app *appgraph.App, par Params) *Optimizer {
	o := &Optimizer{
		top:      top,
		par:      par.normalized(),
		clusters: top.ClusterIDs(),
	}
	o.C = len(o.clusters)

	// Services in sorted order (matches the LP's deterministic column
	// order convention).
	o.svcIdx = make(map[appgraph.ServiceID]int)
	for sid := range app.Services {
		o.svcIDs = append(o.svcIDs, sid)
	}
	sort.Slice(o.svcIDs, func(i, j int) bool { return o.svcIDs[i] < o.svcIDs[j] })
	o.svcNames = make([]string, len(o.svcIDs))
	for i, sid := range o.svcIDs {
		o.svcIdx[sid] = i
		o.svcNames[i] = string(sid)
	}

	// Pools for every placed (service, cluster), in (service, cluster)
	// order.
	o.poolAt = make([]int, len(o.svcIDs)*o.C)
	for i := range o.poolAt {
		o.poolAt[i] = -1
	}
	for si, sid := range o.svcIDs {
		svc := app.Services[sid]
		for ci := range o.clusters {
			if svc.PlacedIn(o.clusters[ci]) {
				o.poolAt[si*o.C+ci] = len(o.pools)
				o.pools = append(o.pools, pool{svc: si, cl: ci})
			}
		}
	}

	// Flatten call trees class by class in preorder; intern rule pairs.
	o.classIdx = make(map[string]int)
	pairOf := make(map[[2]int]int)
	for ci, cl := range app.Classes {
		o.classIdx[cl.Name] = ci
		info := classInfo{name: cl.Name, n0: len(o.nodes)}
		var visit func(n *appgraph.CallNode, parent int)
		visit = func(n *appgraph.CallNode, parent int) {
			idx := len(o.nodes)
			nd := node{
				cls:    ci,
				svc:    o.svcIdx[n.Service],
				parent: parent,
				pair:   -1,
				count:  float64(n.Count),
				mst:    n.Work.MeanServiceTime.Seconds(),
				bytes:  n.Work.RequestBytes + n.Work.ResponseBytes,
			}
			if parent >= 0 {
				pk := [2]int{ci, nd.svc}
				pi, ok := pairOf[pk]
				if !ok {
					pi = len(o.pairs)
					pairOf[pk] = pi
					p := pair{cls: ci, svc: nd.svc, dstOff: len(o.dstC)}
					for cj := range o.clusters {
						if pl := o.poolAt[nd.svc*o.C+cj]; pl >= 0 {
							o.dstC = append(o.dstC, cj)
							o.dstPool = append(o.dstPool, pl)
							p.nDst++
						}
					}
					o.pairs = append(o.pairs, p)
					if p.nDst > o.maxDst {
						o.maxDst = p.nDst
					}
				}
				nd.pair = pi
			}
			o.nodes = append(o.nodes, nd)
			for _, ch := range n.Children {
				visit(ch, idx)
			}
		}
		visit(cl.Root, -1)
		info.n1 = len(o.nodes)
		o.classes = append(o.classes, info)
	}

	// Pair node lists, weight offsets, linear cost tables, child lists.
	for pi := range o.pairs {
		p := &o.pairs[pi]
		p.wOff = len(o.w) // reserve below
		o.w = append(o.w, make([]float64, o.C*p.nDst)...)
		p.nodeOff = len(o.pairNodes)
		for ni := range o.nodes {
			if o.nodes[ni].pair == pi {
				o.pairNodes = append(o.pairNodes, ni)
				p.nodeN++
			}
		}
	}
	o.childOff = make([]int, len(o.nodes)+1)
	for ni := range o.nodes {
		if pa := o.nodes[ni].parent; pa >= 0 {
			o.childOff[pa+1]++
		}
	}
	for i := 1; i <= len(o.nodes); i++ {
		o.childOff[i] += o.childOff[i-1]
	}
	o.children = make([]int, o.childOff[len(o.nodes)])
	fill := append([]int(nil), o.childOff[:len(o.nodes)]...)
	for ni := range o.nodes {
		if pa := o.nodes[ni].parent; pa >= 0 {
			o.children[fill[pa]] = ni
			fill[pa]++
		}
	}
	for ni := range o.nodes {
		nd := &o.nodes[ni]
		if nd.parent < 0 {
			continue
		}
		p := &o.pairs[nd.pair]
		nd.linOff = len(o.lin)
		nd.scOff = len(o.scale)
		o.scale = append(o.scale, make([]float64, p.nDst)...)
		// lin[(src i, slot s)] = per-call cross-cluster cost from i to
		// the slot's cluster: LatencyWeight·RTT + CostWeight·egress.
		// Mirrors the LP's per-flow objective terms exactly. Nodes of a
		// pair share the routing rule but may differ in Work, so lin is
		// per node, not per pair.
		bytes := nd.bytes
		for i := 0; i < o.C; i++ {
			for s := 0; s < p.nDst; s++ {
				cj := o.dstC[p.dstOff+s]
				var c float64
				if i != cj {
					c = o.par.LatencyWeight * o.top.RTT(o.clusters[i], o.clusters[cj]).Seconds()
					c += o.par.CostWeight * o.top.EgressCost(o.clusters[i], o.clusters[cj], bytes)
				}
				o.lin = append(o.lin, c)
			}
		}
	}

	// Reverse index: pool → rules holding a slot on it.
	o.nRules = len(o.pairs) * o.C
	counts := make([]int, len(o.pools)+1)
	for pi := range o.pairs {
		p := &o.pairs[pi]
		for s := 0; s < p.nDst; s++ {
			counts[o.dstPool[p.dstOff+s]+1] += o.C
		}
	}
	for i := 1; i <= len(o.pools); i++ {
		counts[i] += counts[i-1]
	}
	o.prOff = counts
	o.prList = make([]int32, o.prOff[len(o.pools)])
	cur := append([]int(nil), o.prOff[:len(o.pools)]...)
	for pi := range o.pairs {
		p := &o.pairs[pi]
		for s := 0; s < p.nDst; s++ {
			pl := o.dstPool[p.dstOff+s]
			for src := 0; src < o.C; src++ {
				o.prList[cur[pl]] = int32(pi*o.C + src)
				cur[pl]++
			}
		}
	}

	// State and scratch.
	nn, np := len(o.nodes), len(o.pools)
	o.inflow = make([]float64, nn*o.C)
	o.linNode = make([]float64, nn)
	o.load = make([]float64, np)
	o.cost = make([]float64, np)
	o.segIdx = make([]int, np)
	o.nodeStamp = make([]int64, nn)
	o.sInflow = make([]float64, nn*o.C)
	o.sLinNode = make([]float64, nn)
	o.touched = make([]int32, nn)
	o.poolStamp = make([]int64, np)
	o.poolDelta = make([]float64, np)
	o.sCost = make([]float64, np)
	o.sSeg = make([]int, np)
	o.dirtyPools = make([]int32, np)
	o.ruleStamp = make([]int64, o.nRules)
	o.rescore = make([]int32, o.nRules)
	o.mc = make([]float64, o.maxDst)
	o.rate = make([]float64, o.maxDst)
	o.score = make([]float64, o.nRules)
	o.hp = make([]int32, o.nRules)
	o.hpPos = make([]int32, o.nRules)
	o.lbWork = make([]float64, len(o.svcIDs))
	o.lbAllRoot = make([]bool, len(o.svcIDs))
	o.lbShallow = make([]bool, len(o.svcIDs))
	o.lbSeen = make([]bool, len(o.svcIDs))
	o.lbLin = make([]float64, len(o.svcIDs))
	o.lbPS = make([]float64, len(o.svcIDs))
	o.lbRoot = make([]float64, np)
	o.totalRate = make([]float64, nn)
	return o
}

// Reset binds one tick's inputs: demand (class → cluster → RPS), pool
// cost models, and the incumbent routing table the search starts from.
// It recomputes the full state and the certified lower bound. Reset is
// the cold path; Run is the hot one.
func (o *Optimizer) Reset(
	demand map[string]map[topology.ClusterID]float64,
	pools func(svc appgraph.ServiceID, c topology.ClusterID) (PoolParams, bool),
	incumbent *routing.Table,
) error {
	// Pool cost models.
	o.segW = o.segW[:0]
	o.segS = o.segS[:0]
	o.segEnd = o.segEnd[:0]
	maxSlope := 0.0
	for pi := range o.pools {
		p := &o.pools[pi]
		pp, ok := pools(o.svcIDs[p.svc], o.clusters[p.cl])
		if !ok {
			return fmt.Errorf("search: no pool params for %s@%s", o.svcIDs[p.svc], o.clusters[p.cl])
		}
		p.ref = pp.Ref
		p.segOff = len(o.segW)
		p.segN = len(pp.Segs)
		p.width = 0
		for _, sg := range pp.Segs {
			p.width += sg.Width
			slope := o.par.LatencyWeight * sg.Slope
			o.segW = append(o.segW, sg.Width)
			o.segS = append(o.segS, slope)
			o.segEnd = append(o.segEnd, p.width)
			if slope > maxSlope {
				maxSlope = slope
			}
		}
	}

	// Standard-load scales per (node, slot), and the penalty slope: one
	// unit of overloaded standard load moved anywhere saves penalty and
	// costs at most maxSlope + max lin-per-unit-load, so with a 1e4×
	// margin shedding overload strictly dominates every other move.
	maxLinRate := 0.0
	for ni := range o.nodes {
		nd := &o.nodes[ni]
		if nd.parent < 0 {
			continue
		}
		p := &o.pairs[nd.pair]
		for s := 0; s < p.nDst; s++ {
			pl := o.dstPool[p.dstOff+s]
			sc := 1.0
			if o.pools[pl].ref > 0 {
				sc = nd.mst / o.pools[pl].ref
			}
			o.scale[nd.scOff+s] = sc
			if sc > 0 {
				for i := 0; i < o.C; i++ {
					if lr := o.lin[nd.linOff+i*p.nDst+s] / sc; lr > maxLinRate {
						maxLinRate = lr
					}
				}
			}
		}
	}
	o.penalty = 1e4 * (1 + maxSlope + maxLinRate)

	// Root inflows are the demand itself (roots are pinned to the
	// arrival cluster, exactly like the LP's x[root][i][i] variables).
	for i := range o.inflow {
		o.inflow[i] = 0
	}
	for ci := range o.classes {
		info := &o.classes[ci]
		root := &o.nodes[info.n0]
		per := demand[info.name]
		row := o.inflow[info.n0*o.C : (info.n0+1)*o.C]
		for j := 0; j < o.C; j++ {
			d := per[o.clusters[j]]
			if d < 0 {
				return fmt.Errorf("search: negative demand for class %q in %s", info.name, o.clusters[j])
			}
			if d > 0 && o.poolAt[root.svc*o.C+j] < 0 {
				return fmt.Errorf("search: demand for class %q arrives in %s but frontend %q is not placed there",
					info.name, o.clusters[j], o.svcIDs[root.svc])
			}
			row[j] = d
		}
	}

	// Incumbent weights, projected onto each triple's placement slots.
	for pi := range o.pairs {
		p := &o.pairs[pi]
		for src := 0; src < o.C; src++ {
			wrow := o.w[p.wOff+src*p.nDst : p.wOff+(src+1)*p.nDst]
			var sum float64
			for s := 0; s < p.nDst; s++ {
				wrow[s] = 0
				if incumbent != nil {
					wrow[s] = incumbent.Lookup(o.svcNames[p.svc], o.classes[p.cls].name, o.clusters[src]).
						Weight(o.clusters[o.dstC[p.dstOff+s]])
				}
				sum += wrow[s]
			}
			if sum <= 1e-12 {
				// The incumbent routes this triple nowhere usable (e.g.
				// all weight on a cluster that lost its replicas, or the
				// local fallback points off-placement): start from the
				// first placement, deterministically.
				for s := range wrow {
					wrow[s] = 0
				}
				wrow[0] = 1
				continue
			}
			for s := range wrow {
				wrow[s] /= sum
			}
		}
	}

	o.epoch = 0
	o.rEpoch = 0
	for i := range o.nodeStamp {
		o.nodeStamp[i] = 0
	}
	for i := range o.poolStamp {
		o.poolStamp[i] = 0
	}
	for i := range o.ruleStamp {
		o.ruleStamp[i] = 0
	}
	o.stale = false
	o.recompute()
	o.computeLowerBound()
	return nil
}

// SetDemand adjusts one class's arrival rate at one cluster in place —
// the hot path for perturb-and-reoptimize loops that must not allocate.
// The write is O(1): the full (allocation-free) state refresh is
// deferred to the next Run, Objective, or LowerBound call, so a batch
// of SetDemand calls pays for one refresh, not one per key.
//
//slate:hot
func (o *Optimizer) SetDemand(class string, cluster topology.ClusterID, rps float64) error {
	ci, ok := o.classIdx[class]
	if !ok || rps < 0 {
		return ErrUnknownKey
	}
	cj := -1
	for j := range o.clusters {
		if o.clusters[j] == cluster {
			cj = j
			break
		}
	}
	if cj < 0 {
		return ErrUnknownKey
	}
	info := &o.classes[ci]
	if rps > 0 && o.poolAt[o.nodes[info.n0].svc*o.C+cj] < 0 {
		return ErrUnplaced
	}
	o.inflow[info.n0*o.C+cj] = rps
	o.stale = true
	return nil
}

// refresh applies any pending SetDemand writes: one full recompute plus
// a lower-bound pass, both allocation-free.
//
//slate:hot
func (o *Optimizer) refresh() {
	if !o.stale {
		return
	}
	o.stale = false
	o.recompute()
	o.computeLowerBound()
}

// recompute rebuilds flows, loads, linear costs, and the objective from
// the current weights and root inflows — full-precision ground truth
// that kills any incremental drift. Allocation-free.
//
//slate:hot
func (o *Optimizer) recompute() {
	for i := range o.load {
		o.load[i] = 0
	}
	obj := 0.0
	for ni := range o.nodes {
		nd := &o.nodes[ni]
		row := o.inflow[ni*o.C : (ni+1)*o.C]
		if nd.parent < 0 {
			// Pinned root load on the frontend pools.
			for j := 0; j < o.C; j++ {
				r := row[j]
				if r <= 0 {
					continue
				}
				pl := o.poolAt[nd.svc*o.C+j]
				sc := 1.0
				if o.pools[pl].ref > 0 {
					sc = nd.mst / o.pools[pl].ref
				}
				o.load[pl] += r * sc
			}
			o.linNode[ni] = 0
			continue
		}
		p := &o.pairs[nd.pair]
		for j := range row {
			row[j] = 0
		}
		parentRow := o.inflow[nd.parent*o.C : (nd.parent+1)*o.C]
		var lin float64
		for i := 0; i < o.C; i++ {
			pi := parentRow[i]
			if pi <= 0 {
				continue
			}
			cr := nd.count * pi
			wrow := o.w[p.wOff+i*p.nDst : p.wOff+(i+1)*p.nDst]
			lrow := o.lin[nd.linOff+i*p.nDst : nd.linOff+(i+1)*p.nDst]
			for s := 0; s < p.nDst; s++ {
				ws := wrow[s]
				if ws <= 0 {
					continue
				}
				f := cr * ws
				row[o.dstC[p.dstOff+s]] += f
				lin += f * lrow[s]
			}
		}
		for s := 0; s < p.nDst; s++ {
			o.load[o.dstPool[p.dstOff+s]] += row[o.dstC[p.dstOff+s]] * o.scale[nd.scOff+s]
		}
		o.linNode[ni] = lin
		obj += lin
	}
	for pl := range o.pools {
		c, si := o.poolCostAt(pl, o.load[pl])
		o.cost[pl] = c
		o.segIdx[pl] = si
		obj += c
	}
	o.obj = obj
}

// poolCostAt walks the pool's segments: the cost of carrying load, and
// the segment index the next unit of load would land in (segN when the
// pool is at or beyond its cap, where the marginal cost is the
// penalty).
//
//slate:hot
func (o *Optimizer) poolCostAt(pl int, load float64) (float64, int) {
	p := &o.pools[pl]
	if load <= 0 {
		return 0, 0
	}
	var cost float64
	rem := load
	for k := 0; k < p.segN; k++ {
		w := o.segW[p.segOff+k]
		if rem < w {
			return cost + rem*o.segS[p.segOff+k], k
		}
		cost += w * o.segS[p.segOff+k]
		rem -= w
	}
	if rem > 0 {
		cost += rem * o.penalty
	}
	return cost, p.segN
}

// computeLowerBound sets o.lowerBound, a certified lower bound on the
// optimal objective of the bound instance. It is routing-independent and combines, per
// service, the stronger of two relaxations:
//
//   - Merged fill: per-service total standard work is fixed by demand
//     and call counts, so filling it into the merged, slope-sorted PWL
//     segments of all the service's pools (in work units) can only
//     undercut any feasible assignment; the linear part is bounded by
//     each node's cheapest reachable (source, destination) cost.
//   - Per-source decomposition: pool cost curves are convex with
//     C(0) = 0 and hence superadditive, so the cost of any assignment
//     is at least the sum over (node, source) flows of that flow's
//     single-flow minimum — a greedy fill over the service's pool
//     segments with each destination's slopes offset by the source's
//     linear access cost per unit of work. This prices the
//     locality-vs-spreading tradeoff the merged fill ignores, and is
//     exact when the optimum separates by locality. It applies to
//     shallow services (every call node a pinned root or a child of
//     one), where per-source rates are fixed by demand.
//
// Services that appear only at pinned roots contribute their exact
// constant cost. Computed at Reset and after SetDemand batches.
func (o *Optimizer) computeLowerBound() {
	for i := range o.lbWork {
		o.lbWork[i] = 0
		o.lbAllRoot[i] = true
		o.lbShallow[i] = true
		o.lbSeen[i] = false
		o.lbLin[i] = 0
		o.lbPS[i] = 0
	}
	for i := range o.lbRoot {
		o.lbRoot[i] = 0
	}
	var linDeep float64
	for ni := range o.nodes {
		nd := &o.nodes[ni]
		if nd.parent < 0 {
			var tot float64
			row := o.inflow[ni*o.C : (ni+1)*o.C]
			for j := 0; j < o.C; j++ {
				r := row[j]
				tot += r
				if r > 0 {
					pl := o.poolAt[nd.svc*o.C+j]
					sc := 1.0
					if o.pools[pl].ref > 0 {
						sc = nd.mst / o.pools[pl].ref
					}
					o.lbRoot[pl] += r * sc
				}
			}
			o.totalRate[ni] = tot
		} else {
			o.totalRate[ni] = o.totalRate[nd.parent] * nd.count
			o.lbAllRoot[nd.svc] = false
			p := &o.pairs[nd.pair]
			if o.nodes[nd.parent].parent < 0 {
				// Depth-1: the parent is a pinned root, so the per-source
				// rates are exact.
				parentRow := o.inflow[nd.parent*o.C : (nd.parent+1)*o.C]
				for i := 0; i < o.C; i++ {
					pi := parentRow[i]
					if pi <= 0 {
						continue
					}
					best := math.Inf(1)
					for s := 0; s < p.nDst; s++ {
						if c := o.lin[nd.linOff+i*p.nDst+s]; c < best {
							best = c
						}
					}
					if !math.IsInf(best, 1) {
						o.lbLin[nd.svc] += nd.count * pi * best
					}
					o.lbPS[nd.svc] += o.lbSingleSource(nd, i)
				}
			} else {
				o.lbShallow[nd.svc] = false
				if o.totalRate[ni] > 0 {
					best := math.Inf(1)
					for i := 0; i < o.C; i++ {
						for s := 0; s < p.nDst; s++ {
							if c := o.lin[nd.linOff+i*p.nDst+s]; c < best {
								best = c
							}
						}
					}
					if !math.IsInf(best, 1) {
						linDeep += o.totalRate[ni] * best
					}
				}
			}
		}
		o.lbSeen[nd.svc] = true
		o.lbWork[nd.svc] += o.totalRate[ni] * nd.mst
	}

	var lb float64
	for si := range o.svcIDs {
		if !o.lbSeen[si] {
			continue
		}
		// Exact pinned-root cost: root loads are constants regardless of
		// routing, so every service with root appearances earns this term.
		var rootCost float64
		for pl := range o.pools {
			if o.pools[pl].svc == si && o.lbRoot[pl] > 0 {
				c, _ := o.poolCostAt(pl, o.lbRoot[pl])
				rootCost += c
			}
		}
		if o.lbAllRoot[si] {
			lb += rootCost
			continue
		}
		// Relaxation A: merge every pool's segments in work units and
		// greedy-fill the service's total work into the cheapest slopes.
		merged := o.lbMergedFill(si) + o.lbLin[si]
		if o.lbShallow[si] {
			// Relaxation B: per-source decomposition (superadditivity).
			if ps := rootCost + o.lbPS[si]; ps > merged {
				lb += ps
				continue
			}
		}
		lb += merged
	}
	o.lowerBound = lb + linDeep
}

// lbMergedFill fills service si's total standard work into the merged,
// slope-sorted segments of all its pools, returning the resulting delay
// cost (0 — a weaker but valid bound — when a pool is unpriceable).
func (o *Optimizer) lbMergedFill(si int) float64 {
	o.lbSegs = o.lbSegs[:0]
	for pl := range o.pools {
		p := &o.pools[pl]
		if p.svc != si {
			continue
		}
		if p.ref <= 0 {
			return 0
		}
		for k := 0; k < p.segN; k++ {
			o.lbSegs = append(o.lbSegs, lbSeg{
				slope: o.segS[p.segOff+k] / p.ref,
				width: o.segW[p.segOff+k] * p.ref,
			})
		}
	}
	return o.lbFill(o.lbWork[si])
}

// lbSingleSource prices depth-1 node nd's flow from source cluster i in
// isolation: a greedy fill over the node's destination pools with each
// destination's slopes offset by that source's linear access cost per
// second of work. Pools are priced as if empty — superadditivity of the
// convex cost curves makes the sum over flows a valid lower bound.
func (o *Optimizer) lbSingleSource(nd *node, i int) float64 {
	p := &o.pairs[nd.pair]
	r := nd.count * o.inflow[nd.parent*o.C+i]
	if r <= 0 {
		return 0
	}
	if nd.mst <= 0 {
		// Zero-work flow: only the linear access cost applies.
		best := math.Inf(1)
		for s := 0; s < p.nDst; s++ {
			if c := o.lin[nd.linOff+i*p.nDst+s]; c < best {
				best = c
			}
		}
		if math.IsInf(best, 1) {
			return 0
		}
		return r * best
	}
	o.lbSegs = o.lbSegs[:0]
	for s := 0; s < p.nDst; s++ {
		linW := o.lin[nd.linOff+i*p.nDst+s] / nd.mst
		pl := o.dstPool[p.dstOff+s]
		if pl < 0 || o.pools[pl].ref <= 0 {
			// Unpriceable destination: count only its linear cost.
			o.lbSegs = append(o.lbSegs, lbSeg{slope: linW, width: math.Inf(1)})
			continue
		}
		pp := &o.pools[pl]
		for k := 0; k < pp.segN; k++ {
			o.lbSegs = append(o.lbSegs, lbSeg{
				slope: o.segS[pp.segOff+k]/pp.ref + linW,
				width: o.segW[pp.segOff+k] * pp.ref,
			})
		}
	}
	return o.lbFill(r * nd.mst)
}

// lbFill greedy-fills work seconds into o.lbSegs, cheapest slope first,
// extending the most expensive slope beyond the total width (below the
// overload penalty any feasible-or-penalized assignment would pay).
func (o *Optimizer) lbFill(work float64) float64 {
	if len(o.lbSegs) == 0 {
		return 0
	}
	// Insertion sort by slope: the list is a handful of segments and
	// this path must stay allocation-free (sort.Slice allocates).
	for a := 1; a < len(o.lbSegs); a++ {
		for b := a; b > 0 && o.lbSegs[b].slope < o.lbSegs[b-1].slope; b-- {
			o.lbSegs[b], o.lbSegs[b-1] = o.lbSegs[b-1], o.lbSegs[b]
		}
	}
	var cost float64
	rem := work
	for _, sg := range o.lbSegs {
		take := rem
		if take > sg.width {
			take = sg.width
		}
		cost += take * sg.slope
		rem -= take
		if rem <= 0 {
			break
		}
	}
	if rem > 0 {
		cost += rem * o.lbSegs[len(o.lbSegs)-1].slope
	}
	return cost
}

// feasible reports whether every pool load is within its PWL capacity.
//
//slate:hot
func (o *Optimizer) feasible() bool {
	for pl := range o.pools {
		w := o.pools[pl].width
		if o.load[pl] > w+1e-9*(1+w) {
			return false
		}
	}
	return true
}

// Table extracts the current search state as a routing table: one rule
// per triple that carries traffic, weights over the placement slots.
// Cold path (allocates the table).
func (o *Optimizer) Table(version uint64) *routing.Table {
	rules := make(map[routing.Key]routing.Distribution)
	weights := make(map[topology.ClusterID]float64, o.maxDst)
	for pi := range o.pairs {
		p := &o.pairs[pi]
		for src := 0; src < o.C; src++ {
			var cr float64
			for k := 0; k < p.nodeN; k++ {
				ni := o.pairNodes[p.nodeOff+k]
				nd := &o.nodes[ni]
				cr += nd.count * o.inflow[nd.parent*o.C+src]
			}
			if cr <= 1e-9 {
				continue
			}
			clear(weights)
			wrow := o.w[p.wOff+src*p.nDst : p.wOff+(src+1)*p.nDst]
			for s := 0; s < p.nDst; s++ {
				if wrow[s] > 1e-9 {
					weights[o.clusters[o.dstC[p.dstOff+s]]] = wrow[s]
				}
			}
			d, err := routing.NewDistribution(weights)
			if err != nil {
				continue
			}
			rules[routing.Key{
				Service: o.svcNames[p.svc],
				Class:   o.classes[p.cls].name,
				Cluster: o.clusters[src],
			}] = d
		}
	}
	return routing.NewTable(version, rules)
}
