package simrun

import (
	"cmp"
	"maps"
	"slices"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/sim"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// plan is a scenario compiled once per run to dense integer ids, so the
// per-event path indexes flat arrays and never hashes a name: clusters
// are numbered in topology order, services in sorted order, call nodes
// in pre-order class by class. Tables are [row*nC+cluster].
type plan struct {
	ids      []topology.ClusterID
	byName   []int32 // cluster indices in name order: the order flush emits
	index    map[topology.ClusterID]int32
	svcIndex map[appgraph.ServiceID]int32
	classes  []*appgraph.Class
	nC       int
	shardOf  []int
	oneWay   []time.Duration // [src*nC+dst]
	perGB    []float64       // egress $/GB, [src*nC+dst]
	nodes    []node
	kids     []int32 // children of every node, from node.kid0
	roots    []int32 // root node per class
	pool     []int32 // [svc*nC+cluster] index into pools, -1 where not placed
	pools    []pool
	fallback []int32 // [svc*nC+src] where a call goes when its rule names no usable cluster
	// rows are the run's telemetry keys less the cluster, sorted; stats
	// [row*nC+cluster] holds each key's window. A node records under
	// node.row, a finished request under e2eRow[class], egress under
	// egressRow.
	rows      []telemetry.MetricKey
	stats     []stat
	e2eRow    []int32
	egressRow int32
	// The routing table in force, resolved per (node, source cluster) at
	// every table swap: route r = node*nC+src picks among
	// routeDst[routeOff[r]:routeOff[r+1]] by the weights routeW.
	routeOff []int32
	routeDst []int32
	routeW   []float64
}

// node is one call-tree position of one class.
type node struct {
	cn              *appgraph.CallNode
	class, svc, row int32
	kid0, nKids     int32
	root            bool
}

func cmpRow(a, b telemetry.MetricKey) int {
	return cmp.Or(cmp.Compare(a.Service, b.Service), cmp.Compare(a.Class, b.Class))
}

func (pl *plan) row(service, class string) int32 {
	i, _ := slices.BinarySearchFunc(pl.rows, telemetry.MetricKey{Service: service, Class: class}, cmpRow)
	return int32(i)
}

// stat is one telemetry key's window. The histogram is taken from the
// owning shard's slab when the key is first touched (shardRun.record),
// then Reset and reused window after window.
type stat struct {
	hist   *telemetry.Histogram
	egress int64
}

func compile(scn *Scenario, shardOf map[topology.ClusterID]int, root *sim.RNG) *plan {
	ids := scn.Top.ClusterIDs()
	nC := len(ids)
	pl := &plan{ids: ids, nC: nC, shardOf: make([]int, nC), classes: scn.App.Classes,
		index: make(map[topology.ClusterID]int32, nC), svcIndex: make(map[appgraph.ServiceID]int32, len(scn.App.Services)),
		oneWay: make([]time.Duration, nC*nC), perGB: make([]float64, nC*nC)}
	nearest := make([][]topology.ClusterID, nC)
	pl.byName = make([]int32, nC)
	for i, a := range ids {
		pl.byName[i] = int32(i)
		pl.index[a] = int32(i)
		pl.shardOf[i] = shardOf[a]
		nearest[i] = scn.Top.Nearest(a)
		for j, b := range ids {
			pl.oneWay[i*nC+j] = scn.Top.OneWay(a, b)
			pl.perGB[i*nC+j] = scn.Top.EgressCostPerGB(a, b)
		}
	}

	slices.SortFunc(pl.byName, func(a, b int32) int { return cmp.Compare(ids[a], ids[b]) })

	svcs := slices.Sorted(maps.Keys(scn.App.Services))
	pl.pool = make([]int32, len(svcs)*nC)
	pl.fallback = make([]int32, len(svcs)*nC)
	// Every pool's stream is seeded in place into one slab.
	nPools := 0
	for _, sid := range svcs {
		for _, id := range ids {
			if scn.App.Services[sid].PlacedIn(id) {
				nPools++
			}
		}
	}
	pl.pools = make([]pool, 0, nPools)
	rngs := make([]sim.RNG, nPools)
	for s, sid := range svcs {
		pl.svcIndex[sid] = int32(s)
		svc := scn.App.Services[sid]
		for c, id := range ids {
			pl.pool[s*nC+c] = -1
			if rp := svc.Placement[id]; svc.PlacedIn(id) {
				rng := &rngs[len(pl.pools)]
				root.DeriveNamedInto(rng, "svc/"+string(sid)+"@"+string(id))
				pl.pool[s*nC+c] = int32(len(pl.pools))
				pl.pools = append(pl.pools, pool{key: core.PoolKey{Service: sid, Cluster: id}, head: -1, tail: -1,
					servers: rp.Servers(), conc: rp.Concurrency, rng: rng})
			}
		}
		// The source itself, else the nearest placement; Validate
		// guarantees there is one.
		for src, c := range ids {
			for i := 0; !svc.PlacedIn(c); i++ {
				c = nearest[src][i]
			}
			pl.fallback[s*nC+src] = pl.index[c]
		}
	}

	pl.rows = []telemetry.MetricKey{{Service: telemetry.EgressService, Class: routing.AnyClass}}
	for ci, cl := range scn.App.Classes {
		var walk func(cn *appgraph.CallNode) int32
		walk = func(cn *appgraph.CallNode) int32 {
			n := len(pl.nodes)
			pl.nodes = append(pl.nodes, node{cn: cn, class: int32(ci), svc: pl.svcIndex[cn.Service], root: cn == cl.Root})
			pl.rows = append(pl.rows, telemetry.MetricKey{Service: string(cn.Service), Class: cl.Name})
			// Reserve the children's run of kids, then fill it as they
			// are walked: their own runs follow it, so walk moves pl.kids.
			kid0 := len(pl.kids)
			pl.kids = append(pl.kids, make([]int32, len(cn.Children))...)
			pl.nodes[n].kid0, pl.nodes[n].nKids = int32(kid0), int32(len(cn.Children))
			for i, ch := range cn.Children {
				k := walk(ch)
				pl.kids[kid0+i] = k
			}
			return int32(n)
		}
		pl.roots = append(pl.roots, walk(cl.Root))
		pl.rows = append(pl.rows, telemetry.MetricKey{Service: telemetry.E2EService, Class: cl.Name})
	}
	slices.SortFunc(pl.rows, cmpRow)
	pl.rows = slices.Compact(pl.rows)
	for n := range pl.nodes {
		nd := &pl.nodes[n]
		nd.row = pl.row(string(nd.cn.Service), pl.classes[nd.class].Name)
	}
	for _, cl := range pl.classes {
		pl.e2eRow = append(pl.e2eRow, pl.row(telemetry.E2EService, cl.Name))
	}
	pl.egressRow = pl.row(telemetry.EgressService, routing.AnyClass)
	pl.stats = make([]stat, len(pl.rows)*nC)
	pl.routeOff = make([]int32, len(pl.nodes)*nC+1)
	return pl
}

// resolve compiles tab into the plan's pick lists through Table.Lookup,
// once per table swap. A destination the topology does not know, or
// where the service has no replicas (a misconfigured rule), becomes the
// fallback cluster here instead of at every pick.
func (pl *plan) resolve(tab *routing.Table) {
	pl.routeDst, pl.routeW = pl.routeDst[:0], pl.routeW[:0]
	for n := range pl.nodes {
		nd := &pl.nodes[n]
		for src, id := range pl.ids {
			pl.routeOff[n*pl.nC+src] = int32(len(pl.routeDst))
			if nd.root {
				continue // roots run where the request arrived
			}
			d := tab.Lookup(string(nd.cn.Service), pl.classes[nd.class].Name, id)
			for c, w := range d.All() {
				dst, ok := pl.index[c]
				if !ok || pl.pool[int(nd.svc)*pl.nC+int(dst)] < 0 {
					dst = pl.fallback[int(nd.svc)*pl.nC+src]
				}
				pl.routeDst = append(pl.routeDst, dst)
				pl.routeW = append(pl.routeW, w)
			}
		}
	}
	pl.routeOff[len(pl.routeOff)-1] = int32(len(pl.routeDst))
}

// flush closes the telemetry window: one WindowStats per key touched
// since the last flush, in (service, class, cluster) order — exactly what
// flushing a telemetry.Aggregator per cluster and merging them yields.
//
//slate:cold
func (pl *plan) flush(window time.Duration) []telemetry.WindowStats {
	out := []telemetry.WindowStats{}
	for r, key := range pl.rows {
		for _, c := range pl.byName {
			st := &pl.stats[r*pl.nC+int(c)]
			if st.hist == nil || st.hist.Count() == 0 {
				continue
			}
			key.Cluster = string(pl.ids[c])
			ws := telemetry.WindowStats{
				Key: key, Window: window, Requests: st.hist.Count(), EgressBytes: st.egress,
				MeanLatency: st.hist.Mean(), P50: st.hist.Quantile(0.50), P99: st.hist.Quantile(0.99),
			}
			if window > 0 {
				ws.RPS = float64(ws.Requests) / window.Seconds()
			}
			out = append(out, ws)
			st.hist.Reset()
			st.egress = 0
		}
	}
	return out
}
