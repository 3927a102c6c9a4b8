// The simulation engine. There is one executor: RunParallel partitions a
// scenario's clusters across sim.Group shards and runs them under
// conservative virtual-time synchronization (see internal/sim/group.go),
// and Run is its one-shard case — one kernel, no cross-shard messages,
// one window per control barrier. Its per-event path runs on the scenario
// compiled to dense ids (compile.go) and allocates nothing once warm: a
// call in flight is a frame in its shard's arena, an event a typed record
// naming a frame, a pool's queue a list of frame indices (DESIGN.md
// "Simulation engine"; TestRunSteadyStateAllocs pins it).
//
// The partition exploits the model's physics: a cluster's pools,
// telemetry window, and rule-freshness clock are touched only by
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
// tolerances, TestRunFingerprintsPinned each of 1, 2 and 4 shards bit
// for bit. Exported spans are merged across shards in (End, shard,
// per-shard sequence) order.
package simrun

import (
	"fmt"
	"runtime"
	"slices"
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

// shardRun is one shard's slice of the model, and the sim.Handler of its
// kernel's typed events: the call frames, arrival streams, result
// counters and span buffer of the clusters it owns. All fields are
// touched only from the shard's own window goroutine (or from the
// coordinator at a quiescent barrier).
type shardRun struct {
	id  int
	sh  *sim.Shard
	par *parRun

	// frames is the call-frame arena, in fixed-size chunks so a *frame
	// stays valid while it grows; free heads the list of recycled frames.
	frames  [][]frame
	free    int32
	streams []stream
	scaler  *autoscaler

	samples     [][]time.Duration // per class: post-warmup end-to-end latencies
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

// parRun is the coordinator: the compiled scenario shared by all shards
// during windows — every cluster-indexed entry written only by the shard
// that owns the cluster — plus barrier-only mutable state.
type parRun struct {
	scn    Scenario
	pol    Policy
	g      *sim.Group
	pl     *plan
	shards []*shardRun
	table  *routing.Table // swapped only at barriers
	res    *Result
	sink   SpanSink // nil after the first write error

	picks       []*sim.RNG // routing-pick stream per source cluster
	localServed []uint64   // per arrival cluster
	// lastFresh records, per cluster, the virtual time rules last
	// reached that cluster's proxies; past RuleTTL its calls degrade.
	lastFresh []sim.Time

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
	pl := compile(&scn, part.shardOf, root)
	pl.resolve(table)

	p := &parRun{
		scn:         scn,
		pol:         pol,
		g:           g,
		pl:          pl,
		table:       table,
		sink:        scn.SpanSink,
		picks:       make([]*sim.RNG, pl.nC),
		localServed: make([]uint64, pl.nC),
		lastFresh:   make([]sim.Time, pl.nC),
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

	for s := range part.owned {
		sr := &shardRun{id: s, sh: g.Shard(s), par: p, free: -1, samples: make([][]time.Duration, len(scn.App.Classes))}
		sr.sh.Kernel().SetHandler(sr.fire)
		p.shards = append(p.shards, sr)
	}
	// One shard draws every pick from one shared stream; more shards use
	// per-cluster streams, keyed by cluster name, not shard index, so
	// draws do not depend on the partition.
	onePick := root.DeriveNamed("routing-picks")
	for c, id := range pl.ids {
		p.picks[c] = onePick
		if len(part.owned) > 1 {
			p.picks[c] = root.DeriveNamed("picks@" + string(id))
		}
	}

	// Arrivals are pre-generated from named streams (so policies see
	// identical loads) but not pre-scheduled: each stream reserves its
	// arrivals' tie-break sequence numbers, in workload order, and keeps
	// one arrival in the schedule. They fire exactly where scheduling them
	// all here would put them — equal-timestamp arrivals of two streams
	// included, whose order reaches the result through the shared pick
	// stream — over a heap only as deep as the work in flight.
	for _, spec := range scn.Workload {
		sr := p.shards[part.shardOf[spec.Cluster]]
		at := workload.Arrivals(spec, scn.Duration, root.DeriveNamed("arrivals/"+spec.Class+"@"+string(spec.Cluster)))
		p.res.Generated += uint64(len(at))
		if len(at) == 0 {
			continue
		}
		k := sr.sh.Kernel()
		class := slices.IndexFunc(scn.App.Classes, func(cl *appgraph.Class) bool { return cl.Name == spec.Class })
		st := stream{at: at, seq: k.Reserve(len(at)), class: int32(class), cluster: pl.index[spec.Cluster]}
		k.PostReserved(sim.Time(at[0]), st.seq, sim.Event{Op: opArrive, A: int32(len(sr.streams))})
		sr.streams = append(sr.streams, st)
	}

	// Pool dynamics on the owning shard.
	for _, ev := range scn.Dynamics {
		sr := p.shards[part.shardOf[ev.Cluster]]
		po := &pl.pools[pl.pool[int(pl.svcIndex[ev.Service])*pl.nC+int(pl.index[ev.Cluster])]]
		sr.sh.Kernel().At(sim.Time(ev.At), func(k *sim.Kernel) { sr.resize(k, po, ev.Replicas*po.conc) })
	}

	// Per-shard autoscalers: each scales only its own pools, on its own
	// kernel's schedule — no cross-shard state.
	if scn.Autoscaler != nil {
		for _, sr := range p.shards {
			sr.scaler = newAutoscaler(scn.Autoscaler.defaults(), sr)
			sr.sh.Kernel().After(sr.scaler.cfg.Period, sr.scaler.tick)
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

// controlTick runs one control round at a quiescent barrier: close the
// telemetry window, tick the policy, refresh rules.
func (p *parRun) controlTick(now time.Duration) {
	merged := p.pl.flush(p.scn.ControlPeriod)
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
	} else if tab != nil && tab != p.table {
		p.table = tab
		p.pl.resolve(tab)
	}
	// Rule pushes reach every cluster whose controller is up.
	for c, id := range p.pl.ids {
		if !p.scn.Faults.DownAt(fault.ClusterTarget(id), now) {
			p.lastFresh[c] = sim.Time(now)
		}
	}
}

// The typed events of the per-call path. A is a frame of the firing
// shard's arena, except as noted.
const (
	opArrive = iota // A: arrival stream; its next request enters
	opServe         // the call reaches its pool after the network delay
	opServed        // the call's service time is over
	opReturn        // the response (or a partition's fast failure) reaches the caller; F: fFailed if the remote subtree failed
	opCall          // a call from another shard reaches its pool: A the caller's frame there, B node, C/D source and destination cluster, F its fMeasure flag, X trace, Y parent of the subtree's spans
)

// frame is one call in flight: a call-tree node executing for one
// request. It is allocated when the call is issued, reused for the node's
// Count repetitions, and recycled when the last one completes — by then
// every child frame has completed and folded its outcome into it. A call
// served on another shard has a frame on each side: the caller's keeps its
// span and place in the tree, the server's (ret >= 0) runs pool and subtree.
type frame struct {
	node, src, dst int32
	// parent is the calling node's frame (-1 at a root); in a serving
	// shard's half it is the caller's half, in shard ret's arena.
	parent, ret int32
	next        int32 // free list, or the pool's FIFO
	// left counts a parallel node's running children; for a sequential
	// node it is the index of the running child.
	left   int32
	repeat int32 // executions still to issue after this one
	flags  uint8
	start  sim.Time // when the call was issued: span start, request start at a root
	enq    sim.Time // when it reached the pool
	svc    time.Duration
	// trace is the exported trace (0: no spans), span this execution's
	// span (0: none) under parent span up; the children's spans hang
	// under down, which is span or else up.
	trace, span, up, down uint64
}

const (
	fMeasure = 1 << iota // the request arrived after warm-up
	fCrossed             // a hop at or below this call went cross-cluster
	fFailed              // a hop at or below this call hit a partition
)

// stream is one workload stream's pre-generated arrivals; at[next] is
// the one in the schedule, under sequence number seq+next.
type stream struct {
	at             []time.Duration
	next           int
	seq            uint64
	class, cluster int32
}

const frameChunk = 256

func (sr *shardRun) frame(i int32) *frame { return &sr.frames[i/frameChunk][i%frameChunk] }

func (sr *shardRun) newFrame() (int32, *frame) {
	if sr.free < 0 {
		sr.growFrames()
	}
	i := sr.free
	f := sr.frame(i)
	sr.free = f.next
	return i, f
}

// growFrames adds a chunk to the arena: the peak number of calls in
// flight on this shard went up.
//
//slate:cold
func (sr *shardRun) growFrames() {
	sr.free = int32(len(sr.frames) * frameChunk)
	chunk := make([]frame, frameChunk)
	for i := range chunk {
		chunk[i].next = sr.free + int32(i) + 1
	}
	chunk[frameChunk-1].next = -1
	sr.frames = append(sr.frames, chunk)
}

// fire dispatches one typed event.
//
//slate:hot
func (sr *shardRun) fire(k *sim.Kernel, ev sim.Event) {
	switch ev.Op {
	case opArrive:
		sr.arrive(k, ev.A)
	case opServe:
		sr.serve(k, ev.A, sr.frame(ev.A))
	case opServed:
		sr.served(k, ev.A, sr.frame(ev.A))
	case opReturn:
		f := sr.frame(ev.A)
		f.flags |= ev.F
		sr.complete(k, ev.A, f)
	case opCall:
		i, f := sr.newFrame()
		*f = frame{node: ev.B, src: ev.C, dst: ev.D, parent: ev.A, ret: int32(sr.par.pl.shardOf[ev.C]), flags: ev.F, trace: ev.X, down: ev.Y}
		sr.serve(k, i, f)
	}
}

// mint returns the sequence's next trace or span ID: non-zero (zero parent
// means root), unique across shards and stable for a given (seed, shard
// count). High bits carry the shard — so shard 0's IDs are the bare
// sequence — low bits a sequence driven by the shard's own event order.
func (sr *shardRun) mint(seq *uint64) uint64 {
	*seq++
	return uint64(sr.id)<<48 | *seq
}

// arrive feeds the stream's next arrival into the schedule and launches
// one root request at the arrival cluster.
//
//slate:hot
func (sr *shardRun) arrive(k *sim.Kernel, s int32) {
	st := &sr.streams[s]
	if st.next++; st.next < len(st.at) {
		k.PostReserved(sim.Time(st.at[st.next]), st.seq+uint64(st.next), sim.Event{Op: opArrive, A: s})
	}
	i, f := sr.newFrame()
	*f = frame{node: sr.par.pl.roots[st.class], src: st.cluster, parent: -1, ret: -1}
	if k.Now().Duration() >= sr.par.scn.Warmup {
		f.flags = fMeasure
		if sr.par.sink != nil {
			f.trace = sr.mint(&sr.traceSeq)
		}
	}
	sr.issue(k, i, f)
}

// issue executes the frame's node once: route to a cluster, pay the
// network delay, then queue for service (serve). When the destination
// lives on another shard, the service and the subtree execute there,
// reached by a cross-shard event after the one-way delay (≥ the group
// lookahead by construction), and the response returns by a second one
// carrying the subtree's failed flag: shards share no request state.
//
//slate:hot
func (sr *shardRun) issue(k *sim.Kernel, i int32, f *frame) {
	p, pl := sr.par, sr.par.pl
	nd := &pl.nodes[f.node]
	now, src := k.Now(), int(f.src)
	dst := f.src // roots execute at the arrival cluster
	if !nd.root {
		u := p.picks[src].Float64()
		dst = pl.fallback[int(nd.svc)*pl.nC+src]
		r := int(f.node)*pl.nC + src
		if p.scn.RuleTTL > 0 && (now-p.lastFresh[src]).Duration() > p.scn.RuleTTL {
			// Rules are past the staleness TTL: the hardened proxy stops
			// trusting them and biases local (DESIGN.md degradation
			// ladder). The pick draw is still consumed so fault-free
			// prefixes of hardened/unhardened runs stay aligned.
			sr.degraded++
			p.mDegraded.Inc()
		} else if lo, hi := pl.routeOff[r], pl.routeOff[r+1]; lo < hi {
			// Distribution.Pick over the resolved rule.
			dst = pl.routeDst[hi-1]
			var cum float64
			for j := lo; j < hi; j++ {
				if cum += pl.routeW[j]; u < cum {
					dst = pl.routeDst[j]
					break
				}
			}
		}
	}
	f.dst, f.start = dst, now
	sr.totalCalls++
	// Span export: one span per execution, closed when the node (and its
	// subtree, and the response hop) completes. Its ID is the children's
	// parent ID so the dump reconstructs the call tree.
	f.span, f.down = 0, f.up
	if p.sink != nil && f.trace != 0 {
		f.span = sr.mint(&sr.spanSeq)
		f.down = f.span
	}
	if dst == f.src {
		sr.serve(k, i, f)
		return
	}
	sr.remoteCalls++
	f.flags |= fCrossed
	at := now + sim.Time(pl.oneWay[src*pl.nC+int(dst)])
	if p.scn.Faults.PartitionedAt(pl.ids[src], pl.ids[dst], now.Duration()) {
		// The inter-cluster link is cut: the call fast-fails after the
		// one-way probe and the whole request counts as failed. The
		// subtree never executes — exactly what a connection error does —
		// so no cross-shard traffic is needed even for a remote target.
		f.flags |= fFailed
		p.mPartition.Inc()
		k.Post(at, sim.Event{Op: opReturn, A: i})
		return
	}
	sr.egress(f, f.src, dst, nd.cn.Work.RequestBytes)
	switch to := pl.shardOf[dst]; {
	case to != sr.id:
		sr.sh.Send(to, at, sim.Event{Op: opCall, A: i, B: f.node, C: f.src, D: dst,
			F: f.flags & fMeasure, X: f.trace, Y: f.down})
	case at > now:
		k.Post(at, sim.Event{Op: opServe, A: i})
	default:
		sr.serve(k, i, f)
	}
}

func (sr *shardRun) poolOf(f *frame) *pool {
	pl := sr.par.pl
	return &pl.pools[pl.pool[int(pl.nodes[f.node].svc)*pl.nC+int(f.dst)]]
}

// serve queues the call at its destination pool, drawing its service
// time on arrival. Always executes on the shard owning f.dst.
//
//slate:hot
func (sr *shardRun) serve(k *sim.Kernel, i int32, f *frame) {
	po := sr.poolOf(f)
	f.svc = drawServiceTime(po.rng, sr.par.pl.nodes[f.node].cn.Work)
	f.enq, f.next = k.Now(), -1
	if po.tail < 0 {
		po.head = i
	} else {
		sr.frame(po.tail).next = i
	}
	po.tail = i
	sr.admit(k, po)
}

// admit starts queued calls while the pool has a free server.
func (sr *shardRun) admit(k *sim.Kernel, po *pool) {
	for po.busy < po.servers && po.head >= 0 {
		i := po.head
		f := sr.frame(i)
		if po.head = f.next; po.head < 0 {
			po.tail = -1
		}
		po.busy++
		k.Post(k.Now()+sim.Time(f.svc), sim.Event{Op: opServed, A: i})
	}
}

// resize changes the pool's server count. Growth starts queued calls into
// the new slots at once; shrinkage lets running calls finish.
func (sr *shardRun) resize(k *sim.Kernel, po *pool, servers int) {
	po.servers = max(servers, 1)
	sr.admit(k, po)
}

// served ends the call's service: the server takes the next queued call,
// the sojourn is recorded, and the node's children run from the
// destination cluster, together or one after another per its Parallel
// flag (a child's Count repetitions always in sequence).
//
//slate:hot
func (sr *shardRun) served(k *sim.Kernel, i int32, f *frame) {
	pl := sr.par.pl
	po := sr.poolOf(f)
	po.busy--
	po.busySeconds += f.svc.Seconds()
	sr.admit(k, po)
	nd := &pl.nodes[f.node]
	if f.flags&fMeasure != 0 {
		sr.record(nd.row, f.dst, (k.Now() - f.enq).Duration(), 0)
	}
	switch {
	case nd.nKids == 0:
		sr.respond(k, i, f)
	case nd.cn.Parallel:
		f.left = nd.nKids
		for _, kid := range pl.kids[nd.kid0 : nd.kid0+nd.nKids] {
			sr.call(k, i, f, kid)
		}
	default:
		f.left = 0
		sr.call(k, i, f, pl.kids[nd.kid0])
	}
}

// call issues child node n of frame f from f's destination cluster.
func (sr *shardRun) call(k *sim.Kernel, i int32, f *frame, n int32) {
	ci, c := sr.newFrame()
	*c = frame{node: n, src: f.dst, parent: i, ret: -1, flags: f.flags & fMeasure, trace: f.trace, up: f.down,
		repeat: int32(sr.par.pl.nodes[n].cn.Count) - 1}
	sr.issue(k, ci, c)
}

// respond runs when the node and its subtree are done: a remote call
// pays the response's egress and network delay before it completes.
//
//slate:hot
func (sr *shardRun) respond(k *sim.Kernel, i int32, f *frame) {
	if f.dst == f.src {
		sr.complete(k, i, f)
		return
	}
	pl := sr.par.pl
	sr.egress(f, f.dst, f.src, pl.nodes[f.node].cn.Work.ResponseBytes)
	at := k.Now() + sim.Time(pl.oneWay[int(f.dst)*pl.nC+int(f.src)])
	if f.ret < 0 {
		k.Post(at, sim.Event{Op: opReturn, A: i})
		return
	}
	sr.sh.Send(int(f.ret), at, sim.Event{Op: opReturn, A: f.parent, F: f.flags & fFailed})
	f.next, sr.free = sr.free, i // recycle the serving half
}

// complete ends one execution of the frame's node at its caller: close
// the span, then repeat the call, or fold the outcome into the parent and
// let it proceed — to its next sequential child, or to its own response
// once the last child is back. A root accounts the finished request.
//
//slate:hot
func (sr *shardRun) complete(k *sim.Kernel, i int32, f *frame) {
	pl := sr.par.pl
	nd := &pl.nodes[f.node]
	if f.span != 0 {
		sr.spans = append(sr.spans, telemetry.Span{
			Trace:     telemetry.TraceID(f.trace),
			ID:        telemetry.SpanID(f.span),
			Parent:    telemetry.SpanID(f.up),
			Service:   string(nd.cn.Service),
			Cluster:   string(pl.ids[f.dst]),
			Class:     pl.classes[nd.class].Name,
			Start:     f.start.Duration(),
			End:       k.Now().Duration(),
			ReqBytes:  nd.cn.Work.RequestBytes,
			RespBytes: nd.cn.Work.ResponseBytes,
			Remote:    f.dst != f.src,
		})
	}
	if f.repeat > 0 {
		f.repeat--
		sr.issue(k, i, f)
		return
	}
	pi, flags := f.parent, f.flags
	f.next, sr.free = sr.free, i // recycle
	switch {
	case pi >= 0:
		pf := sr.frame(pi)
		pf.flags |= flags & (fCrossed | fFailed)
		pn := &pl.nodes[pf.node]
		if pn.cn.Parallel {
			if pf.left--; pf.left > 0 {
				return
			}
		} else if pf.left++; pf.left < pn.nKids {
			sr.call(k, pi, pf, pl.kids[pn.kid0+pf.left])
			return
		}
		sr.respond(k, pi, pf)
	case flags&fMeasure == 0:
	case flags&fFailed != 0:
		sr.failed++
	default:
		lat := (k.Now() - f.start).Duration()
		sr.samples[nd.class] = append(sr.samples[nd.class], lat)
		if flags&fCrossed == 0 {
			sr.par.localServed[f.src]++
		}
		sr.record(pl.e2eRow[nd.class], f.src, lat, 0)
	}
}

// record adds one observation to telemetry key (row, cluster).
func (sr *shardRun) record(row, cluster int32, latency time.Duration, egress int64) {
	st := &sr.par.pl.stats[int(row)*sr.par.pl.nC+int(cluster)]
	if st.hist == nil {
		st.grow()
	}
	st.hist.Record(latency)
	st.egress += egress
}

// egress accounts the bytes call f sends between clusters, if measured.
func (sr *shardRun) egress(f *frame, from, to int32, bytes int64) {
	if bytes <= 0 || f.flags&fMeasure == 0 {
		return
	}
	pl := sr.par.pl
	sr.egressBytes += bytes
	sr.egressCost += pl.perGB[int(from)*pl.nC+int(to)] * float64(bytes) / (1 << 30)
	sr.record(pl.egressRow, from, 0, bytes)
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
	for ci, cl := range p.scn.App.Classes {
		cr := &ClassResult{Class: cl.Name}
		res.PerClass[cl.Name] = cr
		for _, sr := range p.shards {
			cr.Samples = append(cr.Samples, sr.samples[ci]...)
		}
		cr.Completed = uint64(len(cr.Samples))
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
	}
	for c, n := range p.localServed {
		if n > 0 && res.MeasuredWindow > 0 {
			res.LocalServedRPS[p.pl.ids[c]] = float64(n) / res.MeasuredWindow.Seconds()
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
		}
		for i := range p.pl.pools {
			po := &p.pl.pools[i]
			res.FinalReplicas[po.key] = po.servers / po.conc
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
