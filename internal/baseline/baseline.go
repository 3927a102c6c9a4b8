// Package baseline implements the request-routing baselines SLATE is
// evaluated against (paper §4): the capacity-based "Waterfall"
// offloading algorithm used by Google's Traffic Director and Meta's
// ServiceRouter, locality-failover load balancing as found in today's
// service meshes, and plain local-only routing.
//
// Waterfall characteristics faithfully reproduced from the paper:
//   - each service has a predefined static capacity in requests per
//     second, of any type (class-blind);
//   - load beyond the capacity is greedily offloaded to the nearest
//     cluster (by network RTT) with available capacity;
//   - decisions are single-hop: each service's spill considers only its
//     own replica pool state, never downstream effects.
package baseline

import (
	"fmt"
	"maps"
	"sort"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/forecast"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// Capacities maps each (service, cluster) pool to its configured
// capacity threshold in requests/second.
type Capacities map[core.PoolKey]float64

// DefaultCapacities derives Waterfall's static thresholds from the
// application model: each pool's capacity is thresholdFrac of its
// nominal throughput (servers / reference service time), the way an
// operator would size thresholds from a load test. The reference
// service time is demand-weighted across classes — Waterfall has no
// per-class view, so heavy and light requests count the same against
// the threshold.
func DefaultCapacities(app *appgraph.App, top *topology.Topology, demand core.Demand, thresholdFrac float64) Capacities {
	if thresholdFrac <= 0 {
		thresholdFrac = 0.8
	}
	profs := core.DefaultProfiles(app, top, demand)
	out := make(Capacities)
	for sid, svc := range app.Services {
		for _, c := range svc.Clusters(top) {
			pp, ok := profs.Get(sid, c)
			if !ok {
				continue
			}
			nominal := float64(pp.Servers) / pp.RefServiceTime.Seconds()
			out[core.PoolKey{Service: sid, Cluster: c}] = thresholdFrac * nominal
		}
	}
	return out
}

// Waterfall computes the waterfall routing table for the given offered
// demand: class-blind per-service spillover from overloaded clusters to
// the nearest clusters with headroom. version stamps the table.
func Waterfall(top *topology.Topology, app *appgraph.App, demand core.Demand, caps Capacities, version uint64) (*routing.Table, error) {
	if err := app.Validate(top); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}

	// Arrival load per node per cluster, propagated depth by depth. A
	// node's execution distribution is its arrival distribution pushed
	// through the service's (single) waterfall rule.
	type nodeState struct {
		node *appgraph.CallNode
		// exec[c] is the rate of this node's calls executing in c.
		exec map[topology.ClusterID]float64
	}
	rules := make(map[routing.Key]routing.Distribution)
	// Per-service waterfall split, computed once per service at the
	// depth it is first encountered (all our applications place a
	// service at a single tree depth).
	serviceSplit := make(map[appgraph.ServiceID]map[topology.ClusterID]map[topology.ClusterID]float64)

	frontier := make([]nodeState, 0, len(app.Classes))
	for _, cl := range app.Classes {
		exec := make(map[topology.ClusterID]float64)
		for c, d := range demand[cl.Name] {
			if d < 0 {
				return nil, fmt.Errorf("baseline: negative demand for class %q", cl.Name)
			}
			if d > 0 {
				if !app.Services[cl.Root.Service].PlacedIn(c) {
					return nil, fmt.Errorf("baseline: demand for class %q arrives in %s but frontend is not placed there", cl.Name, c)
				}
				exec[c] += d
			}
		}
		// Roots are pinned to the arrival cluster, as in SLATE.
		frontier = append(frontier, nodeState{node: cl.Root, exec: exec})
	}

	for len(frontier) > 0 {
		// Gather arrivals for every child at this depth, per service.
		type arrivalKey struct {
			svc appgraph.ServiceID
		}
		arrivals := make(map[arrivalKey]map[topology.ClusterID]float64)
		var children []nodeState
		for _, ns := range frontier {
			for _, ch := range ns.node.Children {
				k := arrivalKey{svc: ch.Service}
				if arrivals[k] == nil {
					arrivals[k] = make(map[topology.ClusterID]float64)
				}
				for c, rate := range ns.exec {
					arrivals[k][c] += rate * float64(ch.Count)
				}
				children = append(children, nodeState{node: ch})
			}
		}
		// Compute one split per service (class-blind).
		for k, arr := range arrivals {
			if serviceSplit[k.svc] == nil {
				split, err := waterfallSplit(top, app.Services[k.svc], arr, caps)
				if err != nil {
					return nil, err
				}
				serviceSplit[k.svc] = split
			}
		}
		// Push each child's arrivals through its service split.
		for ci := range children {
			ch := &children[ci]
			split := serviceSplit[ch.node.Service]
			exec := make(map[topology.ClusterID]float64)
			// Recompute this node's own arrivals (parents' exec × count).
			for _, ns := range frontier {
				for _, c := range ns.node.Children {
					if c == ch.node {
						for cc, rate := range ns.exec {
							for dst, frac := range split[cc] {
								exec[dst] += rate * float64(ch.node.Count) * frac
							}
						}
					}
				}
			}
			ch.exec = exec
		}
		frontier = children
	}

	// Translate splits into routing rules.
	for svc, split := range serviceSplit {
		for src, fracs := range split {
			if len(fracs) == 0 {
				continue
			}
			d, err := routing.NewDistribution(fracs)
			if err != nil {
				continue
			}
			if len(fracs) == 1 {
				if _, local := fracs[src]; local {
					continue // pure local rule is the default; skip
				}
			}
			rules[routing.Key{Service: string(svc), Class: routing.AnyClass, Cluster: src}] = d
		}
	}
	return routing.NewTable(version, rules), nil
}

// waterfallSplit computes, for one service, the per-source-cluster
// destination fractions: keep up to capacity locally, spill the excess
// to the nearest clusters with headroom (greedy), and keep any
// unplaceable remainder local.
func waterfallSplit(top *topology.Topology, svc *appgraph.Service, arrivals map[topology.ClusterID]float64, caps Capacities) (map[topology.ClusterID]map[topology.ClusterID]float64, error) {
	if svc == nil {
		return nil, fmt.Errorf("baseline: nil service")
	}
	capOf := func(c topology.ClusterID) float64 {
		return caps[core.PoolKey{Service: svc.ID, Cluster: c}]
	}
	// Deterministic order.
	clusters := top.ClusterIDs()

	assigned := make(map[topology.ClusterID]float64) // load accepted in cluster
	type spillPlan struct {
		keepLocal float64
		spills    map[topology.ClusterID]float64
		total     float64
		forced    bool // service absent locally: locality failover
	}
	plans := make(map[topology.ClusterID]*spillPlan)

	// Pass 1: local acceptance up to capacity.
	for _, c := range clusters {
		load := arrivals[c]
		if load <= 0 {
			continue
		}
		p := &spillPlan{total: load, spills: make(map[topology.ClusterID]float64)}
		plans[c] = p
		if !svc.PlacedIn(c) {
			p.forced = true
			continue // everything must go remote
		}
		keep := load
		if cp := capOf(c); keep > cp {
			keep = cp
		}
		p.keepLocal = keep
		assigned[c] += keep
	}
	// Pass 2: spill excess to nearest clusters with headroom, processing
	// sources in deterministic topology order (matching how a fleet of
	// independent per-cluster balancers converges).
	var sources []topology.ClusterID
	for c := range plans {
		sources = append(sources, c)
	}
	sort.Slice(sources, func(i, j int) bool { return sources[i] < sources[j] })
	for _, src := range sources {
		p := plans[src]
		excess := p.total - p.keepLocal
		if excess <= 1e-12 {
			continue
		}
		for _, dst := range top.Nearest(src) {
			if !svc.PlacedIn(dst) {
				continue
			}
			headroom := capOf(dst) - assigned[dst]
			if headroom <= 1e-12 {
				continue
			}
			take := excess
			if take > headroom {
				take = headroom
			}
			p.spills[dst] += take
			assigned[dst] += take
			excess -= take
			if excess <= 1e-12 {
				break
			}
		}
		if excess > 1e-12 {
			if p.forced {
				// No capacity anywhere but the service is absent locally:
				// send to the nearest placement regardless (failover).
				for _, dst := range top.Nearest(src) {
					if svc.PlacedIn(dst) {
						p.spills[dst] += excess
						assigned[dst] += excess
						excess = 0
						break
					}
				}
				if excess > 0 {
					return nil, fmt.Errorf("baseline: service %q is not placed in any cluster", svc.ID)
				}
			} else {
				// Over global capacity: the remainder stays local (the
				// paper's waterfall has nowhere else to send it).
				p.keepLocal += excess
			}
		}
	}

	out := make(map[topology.ClusterID]map[topology.ClusterID]float64, len(plans))
	for src, p := range plans {
		fr := make(map[topology.ClusterID]float64)
		if p.keepLocal > 0 {
			fr[src] = p.keepLocal / p.total
		}
		for dst, v := range p.spills {
			fr[dst] = v / p.total
		}
		out[src] = fr
	}
	return out, nil
}

// LocalityFailover returns the routing table of a standard service mesh
// with locality-failover load balancing (paper §4.3): requests stay in
// the local cluster whenever the service exists there, and fail over to
// the nearest cluster hosting the service otherwise. Capacity is never
// considered.
func LocalityFailover(top *topology.Topology, app *appgraph.App, version uint64) (*routing.Table, error) {
	if err := app.Validate(top); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	rules := make(map[routing.Key]routing.Distribution)
	for sid, svc := range app.Services {
		for _, src := range top.ClusterIDs() {
			if svc.PlacedIn(src) {
				continue
			}
			for _, dst := range top.Nearest(src) {
				if svc.PlacedIn(dst) {
					rules[routing.Key{Service: string(sid), Class: routing.AnyClass, Cluster: src}] = routing.Local(dst)
					break
				}
			}
		}
	}
	return routing.NewTable(version, rules), nil
}

// LocalOnly returns the empty table: every request is served by the
// local replica pool regardless of load (simple intra-cluster load
// balancing only).
func LocalOnly() *routing.Table { return routing.EmptyTable() }

// StaticWeighted returns the routing table of Istio's locality weighted
// distribution load balancing (paper §2, survey option [13]): the
// operator statically configures, per source cluster, fixed destination
// weights that apply to every service and every traffic class, fully
// load- and class-blind. weights maps each source cluster to its
// destination weights; clusters without an entry stay local.
func StaticWeighted(top *topology.Topology, app *appgraph.App, weights map[topology.ClusterID]map[topology.ClusterID]float64, version uint64) (*routing.Table, error) {
	if err := app.Validate(top); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	rules := make(map[routing.Key]routing.Distribution)
	for src, w := range weights {
		if !top.Has(src) {
			return nil, fmt.Errorf("baseline: static weights for unknown cluster %q", src)
		}
		for dst := range w {
			if !top.Has(dst) {
				return nil, fmt.Errorf("baseline: static weight to unknown cluster %q", dst)
			}
		}
		for sid, svc := range app.Services {
			// Restrict to clusters actually hosting the service,
			// renormalizing — the mesh cannot send traffic to a cluster
			// with no endpoints.
			eligible := map[topology.ClusterID]float64{}
			for dst, frac := range w {
				if svc.PlacedIn(dst) && frac > 0 {
					eligible[dst] = frac
				}
			}
			if len(eligible) == 0 {
				continue
			}
			d, err := routing.NewDistribution(eligible)
			if err != nil {
				continue
			}
			rules[routing.Key{Service: string(sid), Class: routing.AnyClass, Cluster: src}] = d
		}
	}
	return routing.NewTable(version, rules), nil
}

// Controller recomputes the Waterfall table from observed demand each
// telemetry window, mirroring core.Controller's interface so runtimes
// can drive either policy identically. Waterfall itself is static
// capacity-based; the controller only refreshes its view of demand.
type Controller struct {
	top     *topology.Topology
	app     *appgraph.App
	caps    Capacities
	demand  core.Demand
	seen    map[forecast.Key]struct{} // core.FoldDemand's scratch
	cur     *routing.Table
	version uint64
	alpha   float64
}

// NewController returns a Waterfall controller with the given static
// capacities.
func NewController(top *topology.Topology, app *appgraph.App, caps Capacities) (*Controller, error) {
	if err := app.Validate(top); err != nil {
		return nil, err
	}
	return &Controller{
		top: top, app: app, caps: caps,
		demand: core.Demand{},
		seen:   make(map[forecast.Key]struct{}),
		cur:    routing.EmptyTable(),
		alpha:  0.5,
	}, nil
}

// Table returns the current routing table.
func (c *Controller) Table() *routing.Table { return c.cur }

// SetDemand seeds the demand estimate with a copy of d: Tick folds
// telemetry into the estimate in place, and the caller's map must not
// move with it.
func (c *Controller) SetDemand(d core.Demand) {
	c.demand = make(core.Demand, len(d))
	for class, per := range d {
		c.demand[class] = maps.Clone(per)
	}
}

// Prime computes the waterfall table from the current (seeded) demand
// estimate and publishes it, for experiments starting from a known
// steady state.
func (c *Controller) Prime() (*routing.Table, error) {
	c.version++
	tab, err := Waterfall(c.top, c.app, c.demand, c.caps, c.version)
	if err != nil {
		return c.cur, err
	}
	c.cur = tab
	return c.cur, nil
}

// Tick ingests one telemetry window and refreshes the waterfall table.
// The window argument is unused (Waterfall keeps no latency state) but
// kept for signature parity with core.Controller.
func (c *Controller) Tick(stats []telemetry.WindowStats, window time.Duration) (*routing.Table, error) {
	_ = window
	core.FoldDemand(c.demand, c.app, stats, c.alpha, c.seen)
	return c.Prime()
}
