// The simulation engine. There is one executor: RunParallel partitions a
// scenario's clusters across sim.Group shards and runs them under
// conservative virtual-time synchronization (see internal/sim/group.go),
// and Run is its one-shard case — one kernel, no cross-shard messages,
// one window per control barrier.
//
// The partition exploits the model's physics: a cluster's pools,
// telemetry aggregator, and rule-freshness clock are touched only by
// events executing "in" that cluster, and every call between clusters
// pays at least the minimum one-way network delay. Assigning whole
// clusters to shards therefore makes all intra-cluster work shard-local
// and gives every cross-shard event a lookahead of
//
//	lookahead = min OneWay(a, b) over clusters a, b in different shards
//
// for free. Clusters with zero mutual delay are forced into the same
// shard (union-find, the mandatory constraint); clusters coupled by a
// traffic class — its arrival sites plus every placement of every
// service the class calls — are additionally coalesced while that keeps
// enough components to fill the requested shard count (the same
// union-find coarsening core.ShardedOptimizer applies to classes).
// Components are then assigned greedily, heaviest first, by offered
// arrival load.
//
// Determinism: all cross-shard ordering is delegated to sim.Group's
// (time, shard, seq) barrier exchange, every RNG stream is derived by
// name from the scenario seed (never from shard indices), and results
// are merged in fixed shard order — so a run is bit-identical for a
// given (seed, shard count) at any GOMAXPROCS. Two data choices depend
// on the shard count. A one-shard partition draws every routing pick
// from the single stream "routing-picks" and shard 0 mints trace/span
// IDs without a shard prefix, which is what every figure metric and
// TestRunFingerprintsPinned were recorded with; more shards draw from
// per-cluster streams ("picks@<cluster>", independent of the
// partition), so runs of the same seed at different shard counts agree
// statistically but not bitwise — the shard-count table tests pin
// Generated/Completed exactly and the latency moments to tight
// tolerances. Exported spans are merged across shards in (End, shard,
// per-shard sequence) order.
package simrun

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/fault"
	"github.com/servicelayernetworking/slate/internal/obs"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/sim"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
	"github.com/servicelayernetworking/slate/internal/workload"
)

// ParallelOptions configures RunParallel.
type ParallelOptions struct {
	// Shards is the desired shard count. Zero uses runtime.GOMAXPROCS.
	// The effective count never exceeds the number of independent
	// cluster components (clusters with zero mutual network delay are
	// inseparable).
	Shards int
}

// ParallelStats reports how the sharded execution went.
type ParallelStats struct {
	// Shards is the effective shard count.
	Shards int
	// Windows is the number of conservative synchronization windows.
	Windows uint64
	// Messages is the number of cross-shard events exchanged.
	Messages uint64
	// Events is the total number of DES events fired across shards.
	Events uint64
	// Lookahead is the conservative lookahead the run used: the minimum
	// one-way delay between clusters on different shards. With one shard
	// there is no such pair and it is unbounded, time.Duration(sim.MaxTime).
	Lookahead time.Duration
}

// partition maps every cluster to a shard.
type partition struct {
	shardOf   map[topology.ClusterID]int
	owned     [][]topology.ClusterID // per shard, in topology order
	lookahead time.Duration
}

// buildPartition assigns clusters to at most want shards. It returns a
// single-shard partition when the topology cannot support more (fewer
// clusters, or zero-delay pairs glue everything together).
func buildPartition(scn *Scenario, want int) partition {
	ids := scn.Top.ClusterIDs()
	idx := make(map[topology.ClusterID]int, len(ids))
	for i, c := range ids {
		idx[c] = i
	}
	if want > len(ids) {
		want = len(ids)
	}
	if want < 1 {
		want = 1
	}

	// Union-find over cluster indices.
	parent := make([]int, len(ids))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	components := len(ids)
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if ra > rb {
			ra, rb = rb, ra
		}
		parent[rb] = ra
		components--
	}

	// Mandatory: clusters with zero one-way delay must co-shard, or the
	// group's lookahead would be non-positive.
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			if scn.Top.OneWay(ids[i], ids[j]) <= 0 {
				union(i, j)
			}
		}
	}

	// Best-effort: coalesce the clusters each traffic class couples
	// (arrival sites + every placement of every service it calls) so
	// cross-shard messages are rare, but never below the shard count —
	// a giant fully-replicated class must not collapse the partition.
	for _, cl := range scn.App.Classes {
		var touched []int
		seen := make(map[int]bool)
		add := func(c topology.ClusterID) {
			if i, ok := idx[c]; ok && !seen[i] {
				seen[i] = true
				touched = append(touched, i)
			}
		}
		for _, spec := range scn.Workload {
			if spec.Class == cl.Name {
				add(spec.Cluster)
			}
		}
		// The root (frontend) call is pinned to the arrival cluster and
		// never routed, so only non-root services couple clusters.
		seenSvc := map[appgraph.ServiceID]bool{}
		cl.Root.Walk(func(n *appgraph.CallNode) {
			if n == cl.Root || seenSvc[n.Service] {
				return
			}
			seenSvc[n.Service] = true
			svc := scn.App.Services[n.Service]
			for _, c := range ids {
				if svc.PlacedIn(c) {
					add(c)
				}
			}
		})
		roots := make(map[int]bool)
		for _, i := range touched {
			roots[find(i)] = true
		}
		if len(roots) <= 1 || components-(len(roots)-1) < want {
			continue
		}
		for _, i := range touched[1:] {
			union(touched[0], i)
		}
	}

	// Gather components (deterministic: keyed by root index, clusters in
	// topology order), weigh them by offered arrival load, and assign
	// heaviest-first to the least-loaded shard.
	weight := make([]float64, len(ids))
	for i := range weight {
		weight[i] = 1 // so service-only clusters still spread out
	}
	for _, spec := range scn.Workload {
		peak := 0.0
		for _, ph := range spec.Phases {
			if ph.RPS > peak {
				peak = ph.RPS
			}
		}
		weight[idx[spec.Cluster]] += peak
	}
	compOf := make(map[int][]int)
	var order []int
	for i := range ids {
		r := find(i)
		if _, ok := compOf[r]; !ok {
			order = append(order, r)
		}
		compOf[r] = append(compOf[r], i)
	}
	compWeight := make(map[int]float64)
	for _, r := range order {
		for _, i := range compOf[r] {
			compWeight[r] += weight[i]
		}
	}
	sort.Slice(order, func(a, b int) bool {
		if compWeight[order[a]] != compWeight[order[b]] { //slate:nolint floatcmp -- sort tie-break must be exact: epsilon grouping would make the order depend on comparison sequence
			return compWeight[order[a]] > compWeight[order[b]]
		}
		return order[a] < order[b]
	})

	shards := want
	if len(order) < shards {
		shards = len(order)
	}
	p := partition{
		shardOf: make(map[topology.ClusterID]int, len(ids)),
		owned:   make([][]topology.ClusterID, shards),
	}
	load := make([]float64, shards)
	memberIdx := make([][]int, shards)
	for _, r := range order {
		best := 0
		for s := 1; s < shards; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		load[best] += compWeight[r]
		memberIdx[best] = append(memberIdx[best], compOf[r]...)
	}
	for s := range memberIdx {
		sort.Ints(memberIdx[s])
		for _, i := range memberIdx[s] {
			p.shardOf[ids[i]] = s
			p.owned[s] = append(p.owned[s], ids[i])
		}
	}

	// Lookahead: the minimum network delay any cross-shard event pays;
	// unbounded when no cluster pair crosses a shard boundary.
	p.lookahead = time.Duration(sim.MaxTime)
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			if p.shardOf[ids[i]] == p.shardOf[ids[j]] {
				continue
			}
			if d := scn.Top.OneWay(ids[i], ids[j]); d < p.lookahead {
				p.lookahead = d
			}
		}
	}
	return p
}

// shardRun is one shard's slice of the model: pools, aggregators,
// pick streams, freshness clocks, and counters for the clusters the
// shard owns. All fields are touched only from the shard's own window
// goroutine (or from the coordinator at a quiescent barrier).
type shardRun struct {
	id  int
	sh  *sim.Shard
	par *parRun

	pools map[core.PoolKey]*pool
	aggs  map[topology.ClusterID]*telemetry.Aggregator
	picks map[topology.ClusterID]*sim.RNG
	// lastFresh records, per cluster, the virtual time rules last
	// reached that cluster's proxies; see degradedAt.
	lastFresh map[topology.ClusterID]sim.Time
	scaler    *autoscaler

	perClass    map[string]*ClassResult
	localServed map[topology.ClusterID]uint64
	remoteCalls uint64
	totalCalls  uint64
	degraded    uint64
	failed      uint64
	egressBytes int64
	egressCost  float64

	// Span export state. spans buffers finished spans, in End order,
	// until the coordinator drains it at a barrier; traceSeq/spanSeq
	// allocate deterministic IDs so a seeded run always dumps the same
	// trace file.
	spans    []telemetry.Span
	traceSeq uint64
	spanSeq  uint64
}

// parRun is the coordinator: immutable scenario state shared read-only
// by all shards during windows, plus barrier-only mutable state.
type parRun struct {
	scn    Scenario
	pol    Policy
	g      *sim.Group
	part   partition
	shards []*shardRun
	table  *routing.Table // swapped only at barriers
	res    *Result
	sink   SpanSink // nil after the first write error

	// Live observability counters (obs.Default()): the chaos experiment
	// watches these move.
	mDegraded  *obs.Counter
	mMissed    *obs.Counter
	mOutage    *obs.Counter
	mPartition *obs.Counter
}

// Run executes the scenario under the policy on one shard and returns
// the result.
func Run(scn Scenario, pol Policy) (*Result, error) {
	return RunParallel(scn, pol, ParallelOptions{Shards: 1})
}

// RunParallel executes the scenario under the policy, sharded across
// kernels with conservative synchronization. See the package comment in
// this file for the determinism contract.
func RunParallel(scn Scenario, pol Policy, opt ParallelOptions) (*Result, error) {
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	table, err := pol.Init()
	if err != nil {
		return nil, fmt.Errorf("simrun: policy init: %w", err)
	}
	if table == nil {
		table = routing.EmptyTable()
	}
	want := opt.Shards
	if want <= 0 {
		want = runtime.GOMAXPROCS(0)
	}
	part := buildPartition(&scn, want)
	g := sim.NewGroup(len(part.owned), sim.Time(part.lookahead))
	root := sim.NewRNG(scn.Seed)

	p := &parRun{
		scn:   scn,
		pol:   pol,
		g:     g,
		part:  part,
		table: table,
		sink:  scn.SpanSink,
		res: &Result{
			Scenario:       scn.Name,
			Policy:         pol.Name(),
			PerClass:       make(map[string]*ClassResult),
			LocalServedRPS: make(map[topology.ClusterID]float64),
			Parallel:       &ParallelStats{Shards: len(part.owned), Lookahead: part.lookahead},
		},
	}
	reg := obs.Default()
	p.mDegraded = reg.Counter("slate_sim_degraded_calls_total",
		"Simulated routing decisions that fell back to local-biased routing (rules past TTL).")
	p.mMissed = reg.Counter("slate_sim_missed_ticks_total",
		"Simulated control rounds skipped because the global controller was down.")
	faults := reg.CounterVec("slate_fault_injected_total",
		"Faults injected into control RPCs, by kind.", "kind")
	p.mOutage = faults.With("outage")
	p.mPartition = faults.With("partition")

	var scalerCfg AutoscalerConfig
	var conc map[core.PoolKey]int
	if scn.Autoscaler != nil {
		scalerCfg = scn.Autoscaler.defaults()
		conc = map[core.PoolKey]int{}
		for sid, svc := range scn.App.Services {
			for c, pl := range svc.Placement {
				if pl.Replicas > 0 {
					conc[core.PoolKey{Service: sid, Cluster: c}] = pl.Concurrency
				}
			}
		}
	}

	onePick := root.DeriveNamed("routing-picks")
	for s := 0; s < len(part.owned); s++ {
		sr := &shardRun{
			id:          s,
			sh:          g.Shard(s),
			par:         p,
			pools:       make(map[core.PoolKey]*pool),
			aggs:        make(map[topology.ClusterID]*telemetry.Aggregator),
			picks:       make(map[topology.ClusterID]*sim.RNG),
			lastFresh:   make(map[topology.ClusterID]sim.Time),
			perClass:    make(map[string]*ClassResult),
			localServed: make(map[topology.ClusterID]uint64),
		}
		for _, c := range part.owned[s] {
			sr.aggs[c] = telemetry.NewAggregator()
			// One shard draws every pick from one shared stream; more
			// shards use per-cluster streams, keyed by cluster name, not
			// shard index, so draws do not depend on the partition.
			sr.picks[c] = onePick
			if len(part.owned) > 1 {
				sr.picks[c] = root.DeriveNamed("picks@" + string(c))
			}
		}
		for _, cl := range scn.App.Classes {
			sr.perClass[cl.Name] = &ClassResult{Class: cl.Name}
		}
		p.shards = append(p.shards, sr)
	}
	for sid, svc := range scn.App.Services {
		for c, pl := range svc.Placement {
			if pl.Replicas <= 0 {
				continue
			}
			key := core.PoolKey{Service: sid, Cluster: c}
			p.shards[part.shardOf[c]].pools[key] = &pool{
				key:     key,
				servers: pl.Servers(),
				rng:     root.DeriveNamed("svc/" + string(sid) + "@" + string(c)),
			}
		}
	}

	// Arrivals, pre-generated from named streams (so policies see
	// identical loads) and scheduled on the arrival cluster's shard.
	for _, spec := range scn.Workload {
		spec := spec
		stream := root.DeriveNamed("arrivals/" + spec.Class + "@" + string(spec.Cluster))
		class := scn.App.Class(spec.Class)
		sr := p.shards[part.shardOf[spec.Cluster]]
		for _, at := range workload.Arrivals(spec, scn.Duration, stream) {
			at := at
			sr.sh.Kernel().At(sim.Time(at), func(k *sim.Kernel) {
				sr.startRequest(k, class, spec.Cluster)
			})
			p.res.Generated++
		}
	}

	// Pool dynamics on the owning shard.
	for _, ev := range scn.Dynamics {
		ev := ev
		c := scalerConc(scn, core.PoolKey{Service: ev.Service, Cluster: ev.Cluster})
		if c < 1 {
			c = 1
		}
		sr := p.shards[part.shardOf[ev.Cluster]]
		sr.sh.Kernel().At(sim.Time(ev.At), func(k *sim.Kernel) {
			sr.pools[core.PoolKey{Service: ev.Service, Cluster: ev.Cluster}].resize(k, ev.Replicas*c)
		})
	}

	// Per-shard autoscalers: each scales only its own pools, on its own
	// kernel's schedule — no cross-shard state.
	if scn.Autoscaler != nil {
		for _, sr := range p.shards {
			sr := sr
			sr.scaler = newAutoscaler(scalerCfg, sr.pools, conc)
			var tick func(*sim.Kernel)
			tick = func(k *sim.Kernel) {
				sr.scaler.tick(k)
				if k.Now().Duration()+scalerCfg.Period < scn.Duration {
					k.After(scalerCfg.Period, tick)
				}
			}
			sr.sh.Kernel().After(scalerCfg.Period, tick)
		}
	}

	// Drive windows between control barriers, then drain in-flight work
	// (arrivals stop at Duration; completions beyond it still count).
	// Ticks fire at i×ControlPeriod for i = 1, 2, … while that is before
	// Duration; the first tick is unconditional.
	if scn.ControlPeriod > 0 {
		for i := 1; ; i++ {
			at := time.Duration(i) * scn.ControlPeriod
			if i > 1 && at >= scn.Duration {
				break
			}
			g.RunUntil(sim.Time(at))
			p.controlTick(at)
			if at >= scn.Duration {
				break
			}
		}
	}
	g.Run()

	p.finalize()
	return p.res, nil
}

// controlTick runs one control round at a quiescent barrier: flush
// every cluster's window (in topology order), merge, tick the policy,
// refresh rules.
func (p *parRun) controlTick(now time.Duration) {
	var groups [][]telemetry.WindowStats
	for _, c := range p.scn.Top.ClusterIDs() {
		groups = append(groups, p.shards[p.part.shardOf[c]].aggs[c].Flush(p.scn.ControlPeriod))
	}
	merged := telemetry.Merge(groups...)
	if pt, ok := timelineFrom(now, merged, p.scn.ControlPeriod); ok {
		p.res.Timeline = append(p.res.Timeline, pt)
	}
	p.exportSpans()
	if p.scn.Faults.DownAt(fault.Global, now) {
		// The global controller is down: no optimization, no rule push —
		// every cluster's rules age toward RuleTTL.
		p.res.MissedTicks++
		p.mMissed.Inc()
		p.mOutage.Inc()
		return
	}
	if tab, err := p.pol.Tick(merged, p.scn.ControlPeriod); err != nil {
		p.res.PolicyErrors++
	} else if tab != nil {
		p.table = tab
	}
	// Rule pushes reach every cluster whose controller is up.
	for _, c := range p.scn.Top.ClusterIDs() {
		if !p.scn.Faults.DownAt(fault.ClusterTarget(c), now) {
			p.shards[p.part.shardOf[c]].lastFresh[c] = sim.Time(now)
		}
	}
}

// nextTrace and nextSpan mint non-zero IDs (zero parent means root),
// unique across shards and stable for a given (seed, shard count): high
// bits carry the shard — so shard 0's IDs are the bare sequence — low
// bits a per-shard sequence driven entirely by the shard's own event
// order.
func (sr *shardRun) nextTrace() uint64 {
	sr.traceSeq++
	return uint64(sr.id)<<48 | sr.traceSeq
}

func (sr *shardRun) nextSpan() uint64 {
	sr.spanSeq++
	return uint64(sr.id)<<48 | sr.spanSeq
}

// degradedAt reports whether cluster c's proxies have passed the rule
// staleness TTL at now and must degrade to local-biased routing.
func (sr *shardRun) degradedAt(c topology.ClusterID, now sim.Time) bool {
	if sr.par.scn.RuleTTL <= 0 {
		return false
	}
	return (now - sr.lastFresh[c]).Duration() > sr.par.scn.RuleTTL
}

func (sr *shardRun) accountEgress(from, to topology.ClusterID, bytes int64) {
	if bytes <= 0 {
		return
	}
	sr.egressBytes += bytes
	sr.egressCost += sr.par.scn.Top.EgressCost(from, to, bytes)
	sr.aggs[from].Record(telemetry.MetricKey{
		Service: "__egress__",
		Class:   routing.AnyClass,
		Cluster: string(from),
	}, 0, bytes)
}

func (sr *shardRun) fallbackCluster(svc appgraph.ServiceID, src topology.ClusterID) topology.ClusterID {
	s := sr.par.scn.App.Services[svc]
	if s.PlacedIn(src) {
		return src
	}
	for _, c := range sr.par.scn.Top.Nearest(src) {
		if s.PlacedIn(c) {
			return c
		}
	}
	// Validate() guarantees at least one placement.
	return s.Clusters(sr.par.scn.Top)[0]
}

// startRequest launches one root request at the arrival cluster; it
// runs on — and its completion returns to — the arrival shard.
func (sr *shardRun) startRequest(k *sim.Kernel, class *appgraph.Class, arrival topology.ClusterID) {
	start := k.Now()
	afterWarmup := start.Duration() >= sr.par.scn.Warmup
	ctx := &reqCtx{}
	if sr.par.sink != nil && afterWarmup {
		ctx.trace = sr.nextTrace()
	}
	sr.executeNode(k, ctx, class, class.Root, arrival, arrival, afterWarmup, 0, func(k *sim.Kernel) {
		if !afterWarmup {
			return
		}
		if ctx.failed {
			sr.failed++
			return
		}
		lat := (k.Now() - start).Duration()
		cr := sr.perClass[class.Name]
		cr.Samples = append(cr.Samples, lat)
		cr.Completed++
		if !ctx.crossed {
			sr.localServed[arrival]++
		}
		sr.aggs[arrival].Record(telemetry.MetricKey{
			Service: telemetry.E2EService,
			Class:   class.Name,
			Cluster: string(arrival),
		}, lat, 0)
	})
}

// executeNode runs one call node: route to a cluster, pay the network
// delay, queue for service, then run children (sequentially or in
// parallel), and finally pay the response network delay. When the
// destination cluster lives on another shard, the service + subtree
// executes there (reached by a cross-shard message after the one-way
// network delay, which is ≥ the group lookahead by construction), and
// the response returns by a second message. The remote subtree gets its
// own reqCtx; its failed flag rides back on the response message, so no
// request state is ever shared between shards.
func (sr *shardRun) executeNode(k *sim.Kernel, ctx *reqCtx, class *appgraph.Class, node *appgraph.CallNode, src topology.ClusterID, pinned topology.ClusterID, measure bool, parent uint64, done func(*sim.Kernel)) {
	p := sr.par
	var dst topology.ClusterID
	if node == class.Root {
		dst = pinned // roots execute at the arrival cluster
	} else {
		var d routing.Distribution
		if sr.degradedAt(src, k.Now()) {
			// Rules are past the staleness TTL: the hardened proxy stops
			// trusting them and biases local (DESIGN.md degradation
			// ladder). The pick draw is still consumed so fault-free
			// prefixes of hardened/unhardened runs stay aligned.
			sr.degraded++
			p.mDegraded.Inc()
			d = routing.Local(src)
		} else {
			d = p.table.Lookup(string(node.Service), class.Name, src)
		}
		dst = d.Pick(sr.picks[src].Float64())
		if dst == "" || !p.scn.App.Services[node.Service].PlacedIn(dst) {
			// Misconfigured rule (e.g. table routes to a cluster without
			// replicas): fail over to any placement, nearest first.
			dst = sr.fallbackCluster(node.Service, src)
		}
	}
	sr.totalCalls++
	remote := dst != src
	if remote {
		sr.remoteCalls++
		ctx.crossed = true
	}

	// Span export: one span per call node, closed when the node (and its
	// subtree, and the response hop) completes. selfID doubles as the
	// children's parent ID so the dump reconstructs the call tree.
	selfID := parent
	if p.sink != nil && ctx.trace != 0 {
		selfID = sr.nextSpan()
		span := telemetry.Span{
			Trace:     telemetry.TraceID(ctx.trace),
			ID:        telemetry.SpanID(selfID),
			Parent:    telemetry.SpanID(parent),
			Service:   string(node.Service),
			Cluster:   string(dst),
			Class:     class.Name,
			Start:     k.Now().Duration(),
			ReqBytes:  node.Work.RequestBytes,
			RespBytes: node.Work.ResponseBytes,
			Remote:    remote,
		}
		inner := done
		done = func(k *sim.Kernel) {
			span.End = k.Now().Duration()
			sr.spans = append(sr.spans, span)
			inner(k)
		}
	}

	if remote && p.scn.Faults.PartitionedAt(src, dst, k.Now().Duration()) {
		// The inter-cluster link is cut: the call fast-fails after the
		// one-way probe and the whole request counts as failed. The
		// subtree never executes — exactly what a connection error does —
		// so no cross-shard traffic is needed even for a remote target.
		ctx.failed = true
		p.mPartition.Inc()
		k.After(p.scn.Top.OneWay(src, dst), done)
		return
	}

	netOut := time.Duration(0)
	if remote {
		netOut = p.scn.Top.OneWay(src, dst)
		if measure {
			sr.accountEgress(src, dst, node.Work.RequestBytes)
		}
	}

	if dstShard := p.part.shardOf[dst]; dstShard != sr.id {
		dsr := p.shards[dstShard]
		trace := ctx.trace
		sr.sh.Send(dstShard, k.Now()+sim.Time(netOut), func(k *sim.Kernel) {
			rctx := &reqCtx{crossed: true, trace: trace}
			dsr.servePool(k, rctx, class, node, dst, measure, selfID, func(k *sim.Kernel) {
				if measure {
					dsr.accountEgress(dst, src, node.Work.ResponseBytes)
				}
				failed := rctx.failed
				dsr.sh.Send(sr.id, k.Now()+sim.Time(p.scn.Top.OneWay(dst, src)), func(k *sim.Kernel) {
					if failed {
						ctx.failed = true
					}
					done(k)
				})
			})
		})
		return
	}

	proceed := func(k *sim.Kernel) {
		sr.servePool(k, ctx, class, node, dst, measure, selfID, func(k *sim.Kernel) {
			if remote {
				if measure {
					sr.accountEgress(dst, src, node.Work.ResponseBytes)
				}
				k.After(p.scn.Top.OneWay(dst, src), done)
				return
			}
			done(k)
		})
	}
	if netOut > 0 {
		k.After(netOut, proceed)
	} else {
		proceed(k)
	}
}

// servePool queues the call at its destination pool, records the
// sojourn, and runs the node's children from the destination cluster.
// Always executes on the shard owning `at`.
func (sr *shardRun) servePool(k *sim.Kernel, ctx *reqCtx, class *appgraph.Class, node *appgraph.CallNode, at topology.ClusterID, measure bool, parent uint64, done func(*sim.Kernel)) {
	pl := sr.pools[core.PoolKey{Service: node.Service, Cluster: at}]
	job := &poolJob{
		serviceTime: drawServiceTime(pl.rng, node.Work),
		done: func(k *sim.Kernel, sojourn time.Duration) {
			if measure {
				sr.aggs[at].Record(telemetry.MetricKey{
					Service: string(node.Service),
					Class:   class.Name,
					Cluster: string(at),
				}, sojourn, 0)
			}
			sr.runChildren(k, ctx, class, node, at, measure, parent, done)
		},
	}
	pl.submit(k, job)
}

// runChildren executes a node's children per its Parallel flag, on the
// shard owning `at`, then calls done. Each child call with Count > 1
// repeats sequentially within its own slot (parallel fan-out applies
// across children, not within one child's repetitions).
func (sr *shardRun) runChildren(k *sim.Kernel, ctx *reqCtx, class *appgraph.Class, node *appgraph.CallNode, at topology.ClusterID, measure bool, parent uint64, done func(*sim.Kernel)) {
	children := node.Children
	if len(children) == 0 {
		done(k)
		return
	}
	if node.Parallel {
		remaining := len(children)
		for _, ch := range children {
			ch := ch
			sr.repeatCall(k, ctx, class, ch, at, measure, parent, ch.Count, func(k *sim.Kernel) {
				remaining--
				if remaining == 0 {
					done(k)
				}
			})
		}
		return
	}
	var next func(k *sim.Kernel, idx int)
	next = func(k *sim.Kernel, idx int) {
		if idx >= len(children) {
			done(k)
			return
		}
		ch := children[idx]
		sr.repeatCall(k, ctx, class, ch, at, measure, parent, ch.Count, func(k *sim.Kernel) {
			next(k, idx+1)
		})
	}
	next(k, 0)
}

// repeatCall issues `count` sequential executions of a child node.
func (sr *shardRun) repeatCall(k *sim.Kernel, ctx *reqCtx, class *appgraph.Class, node *appgraph.CallNode, src topology.ClusterID, measure bool, parent uint64, count int, done func(*sim.Kernel)) {
	if count <= 0 {
		done(k)
		return
	}
	sr.executeNode(k, ctx, class, node, src, src, measure, parent, func(k *sim.Kernel) {
		sr.repeatCall(k, ctx, class, node, src, measure, parent, count-1, done)
	})
}

// exportSpans drains every shard's span buffer into the sink in (End,
// shard, per-shard sequence) order. Each buffer is already in End order,
// so this is a k-way merge; and every span still open at a barrier ends
// after it, so draining at each barrier keeps the order global while
// bounding the buffers. A write error stops span export for the rest of
// the run, not the run.
func (p *parRun) exportSpans() {
	if p.sink == nil {
		return
	}
	next := make([]int, len(p.shards))
	for {
		best := -1
		for s, sr := range p.shards {
			if next[s] < len(sr.spans) && (best < 0 || sr.spans[next[s]].End < p.shards[best].spans[next[best]].End) {
				best = s
			}
		}
		if best < 0 {
			break
		}
		if err := p.sink.WriteSpan(p.shards[best].spans[next[best]]); err != nil {
			p.sink = nil
			return
		}
		next[best]++
	}
	for _, sr := range p.shards {
		sr.spans = sr.spans[:0]
	}
}

// finalize merges per-shard state into the result in fixed shard order,
// so the merged output is as deterministic as the shards themselves.
func (p *parRun) finalize() {
	res := p.res
	res.MeasuredWindow = p.scn.Duration - p.scn.Warmup
	var all []time.Duration
	for _, cl := range p.scn.App.Classes {
		cr := &ClassResult{Class: cl.Name}
		res.PerClass[cl.Name] = cr
		for _, sr := range p.shards {
			src := sr.perClass[cl.Name]
			cr.Samples = append(cr.Samples, src.Samples...)
			cr.Completed += src.Completed
		}
		if len(cr.Samples) > 0 {
			cr.Mean = telemetry.MeanOf(cr.Samples)
			cr.P50 = telemetry.QuantileOf(cr.Samples, 0.50)
			cr.P99 = telemetry.QuantileOf(cr.Samples, 0.99)
		}
		res.Completed += cr.Completed
		all = append(all, cr.Samples...)
	}
	var totalCalls, remoteCalls uint64
	for _, sr := range p.shards {
		res.Failed += sr.failed
		res.DegradedCalls += sr.degraded
		res.EgressBytes += sr.egressBytes
		res.EgressCost += sr.egressCost
		totalCalls += sr.totalCalls
		remoteCalls += sr.remoteCalls
		for c, n := range sr.localServed {
			if res.MeasuredWindow > 0 {
				res.LocalServedRPS[c] = float64(n) / res.MeasuredWindow.Seconds()
			}
		}
	}
	if len(all) > 0 {
		res.Mean = telemetry.MeanOf(all)
		res.P50 = telemetry.QuantileOf(all, 0.50)
		res.P99 = telemetry.QuantileOf(all, 0.99)
	}
	if totalCalls > 0 {
		res.RemoteFraction = float64(remoteCalls) / float64(totalCalls)
	}
	res.Availability = 1
	if res.Completed+res.Failed > 0 {
		res.Availability = float64(res.Completed) / float64(res.Completed+res.Failed)
	}

	p.exportSpans()

	if p.scn.Autoscaler != nil {
		res.FinalReplicas = map[core.PoolKey]int{}
		for _, sr := range p.shards {
			res.ScaleEvents = append(res.ScaleEvents, sr.scaler.events...)
			for key, pl := range sr.pools {
				c := 1
				if v := scalerConc(p.scn, key); v > 0 {
					c = v
				}
				res.FinalReplicas[key] = pl.servers / c
			}
		}
		sort.Slice(res.ScaleEvents, func(i, j int) bool {
			a, b := res.ScaleEvents[i], res.ScaleEvents[j]
			if a.At != b.At {
				return a.At < b.At
			}
			return lessPool(a.Pool, b.Pool)
		})
	}

	ps := res.Parallel
	ps.Windows = p.g.Windows()
	ps.Messages = p.g.MessagesSent()
	ps.Events = p.g.EventsProcessed()
}
