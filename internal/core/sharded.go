package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/lp"
	"github.com/servicelayernetworking/slate/internal/queuemodel"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/search"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// ShardedOptimizer is the controller's planning pipeline. It partitions
// the routing problem into independent subproblems — one per connected
// component of the (call-graph × traffic class) coupling graph, or a
// single one holding the whole app when decomposition is off — and
// solves each with its own warm-started Optimizer. Two classes couple
// iff their call trees share a service at a non-root position: root
// nodes are pinned to the arrival cluster (x[root][i][i] = demand, a
// constant), so constant root load on the shared frontend only shifts
// every feasible point's objective by the same amount and never changes
// a shard's argmin. If some class calls the frontend service at a
// non-root position its variable load would land on top of other
// classes' constant root load at a different point of the PWL delay
// curve, so the partition falls back to a single shard (exactness over
// speed).
//
// Dirty-tracking: each shard fingerprints its inputs (its classes'
// demand plus its pools' profiles); when a tick's fingerprint matches
// the last solved one within epsilon, the shard's cached sub-plan is
// reused and the solve is skipped entirely.
//
// Dirty shards solve concurrently, on up to GOMAXPROCS workers, and
// their results are committed in shard order; a shard's solve reads and
// writes that shard alone, so the plan is the same at any worker count.
// Optimize itself is not safe for concurrent use: callers serialize it.
type ShardedOptimizer struct {
	top     *topology.Topology
	app     *appgraph.App
	cfg     Config // normalized
	skipEps float64
	// work is the simplex working storage the dirty shards solve in, one
	// per worker, grown to min(GOMAXPROCS, dirty shards) and kept across
	// ticks: at 48 clusters it is some 1.5 MB, mostly the wide rows' dense
	// storage, and 24 of them would be 36 MB. A shard's Optimizer owns
	// none; its Solver keeps only the packed rows of its last optimal
	// tableau, ≈ 0.1 MB, to resume from when only demand and costs moved.
	work   []*lp.Workspace
	shards []*shard
	dirty  []*shard // this tick's dirty shards, in shard order
	race   *RaceConfig
	stats  OptimizerStats

	// Input layout, compiled once (placement is fixed at build): topology
	// cluster order, every placed pool in (service, cluster) order and the
	// frontend's among them; fpBuf holds the last fingerprint taken.
	clusters []topology.ClusterID
	probes   []poolProbe
	frontend []*poolProbe
	fpBuf    []float64

	// The last merged plan and the sub-plans it was merged from (plans
	// is this tick's): merge re-stamps it while those are the tick's.
	plans, mergedFrom []*Plan
	merged            *Plan
}

// noProfile is the fingerprint of a pool without a profile: never equal.
var noProfile = [4]float64{math.NaN(), math.NaN(), math.NaN(), math.NaN()}

// poolProbe is what the optimizer derives from one pool's profile alone,
// cached beside the PoolProfile value it was computed from. FitProfiles
// mutates Profiles in place, so each tick compares every pool by value.
type poolProbe struct {
	key  PoolKey
	prof PoolProfile
	ok   bool       // the pool has a profile
	fp   [4]float64 // its fingerprint entries
	// Frontend pools only: PWL capacity and the linearization's error.
	width    float64
	widthErr error
}

// shard is one independent subproblem: a subset of classes, the
// sub-graph of services they touch (plus the shared frontend), and a
// dedicated warm-started optimizer with input fingerprinting.
type shard struct {
	classes []*appgraph.Class
	app     *appgraph.App
	opt     *Optimizer
	search  *search.Optimizer // lazily built when the race is armed
	fp      []float64         // inputs of the last successful solve
	plan    *Plan             // result of the last successful solve
	pools   []*poolProbe      // the shard's pools, in probes order

	// This tick's solve while the shard is dirty: the inputs it answers,
	// what the worker that ran it returned, and the optimizer as it stood
	// before — put back when an earlier shard's error leaves this one
	// uncommitted, as if the serial loop had never reached it. Its Solver
	// cannot be put back: the tableau it kept is of the discarded solve.
	pending []float64
	next    *Plan
	race    raceOutcome
	err     error
	before  Optimizer
}

// DefaultSkipEpsilon is the relative input-change threshold below which
// a shard's previous solution is reused without re-solving.
const DefaultSkipEpsilon = 1e-9

// NewShardedOptimizer partitions the app into subproblems. skipEps <= 0
// uses DefaultSkipEpsilon. The partition depends only on the app's call
// trees, so it is computed once.
func NewShardedOptimizer(top *topology.Topology, app *appgraph.App, cfg Config, skipEps float64) *ShardedOptimizer {
	return newShardedOptimizer(top, app, cfg, skipEps, true)
}

// newShardedOptimizer is NewShardedOptimizer with the partition as data:
// decompose false keeps the whole app in one shard.
func newShardedOptimizer(top *topology.Topology, app *appgraph.App, cfg Config, skipEps float64, decompose bool) *ShardedOptimizer {
	if skipEps <= 0 {
		skipEps = DefaultSkipEpsilon
	}
	s := &ShardedOptimizer{top: top, app: app, cfg: cfg.normalized(), skipEps: skipEps}
	s.partition(decompose)
	s.stats.Shards = uint64(len(s.shards))
	s.compileLayout()
	return s
}

// compileLayout fixes the order fingerprints are written in: per class
// the topology's clusters, then pools by service id and topology cluster.
func (s *ShardedOptimizer) compileLayout() {
	s.clusters = s.top.ClusterIDs()
	sids := make([]string, 0, len(s.app.Services))
	for sid := range s.app.Services {
		sids = append(sids, string(sid))
	}
	sort.Strings(sids)
	for _, sid := range sids {
		for _, c := range s.app.Services[appgraph.ServiceID(sid)].Clusters(s.top) {
			s.probes = append(s.probes, poolProbe{key: PoolKey{Service: appgraph.ServiceID(sid), Cluster: c}, fp: noProfile})
		}
	}
	for i := range s.probes {
		p := &s.probes[i]
		if p.key.Service == s.app.FrontendService() {
			s.frontend = append(s.frontend, p)
		}
		for _, sh := range s.shards {
			if _, ok := sh.app.Services[p.key.Service]; ok {
				sh.pools = append(sh.pools, p)
			}
		}
	}
	s.plans = make([]*Plan, len(s.shards))
}

// varServices returns the services a class touches at non-root call
// nodes — the services whose pool load the optimizer can actually move.
func varServices(cl *appgraph.Class) map[appgraph.ServiceID]bool {
	out := make(map[appgraph.ServiceID]bool)
	for _, ch := range cl.Root.Children {
		ch.Walk(func(n *appgraph.CallNode) { out[n.Service] = true })
	}
	return out
}

func (s *ShardedOptimizer) partition(decompose bool) {
	frontend := s.app.FrontendService()
	vars := make([]map[appgraph.ServiceID]bool, len(s.app.Classes))
	for i, cl := range s.app.Classes {
		vars[i] = varServices(cl)
		if vars[i][frontend] {
			// Variable frontend load couples every class through the
			// frontend pool's PWL delay curve: decomposing would be inexact.
			decompose = false
		}
	}
	if !decompose || len(s.app.Classes) <= 1 {
		// One shard over the untouched app (not a rebuilt sub-app), so the
		// formulation is exactly the LP Problem.Optimize builds.
		s.shards = []*shard{{
			classes: s.app.Classes,
			app:     s.app,
			opt:     s.newOptimizer(s.app),
		}}
		return
	}

	// Union-find over classes: same component iff var-service sets meet.
	parent := make([]int, len(s.app.Classes))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	for i := range vars {
		for j := i + 1; j < len(vars); j++ {
			for svc := range vars[i] {
				if vars[j][svc] {
					parent[find(j)] = find(i)
					break
				}
			}
		}
	}
	groups := make(map[int][]*appgraph.Class)
	var order []int
	for i, cl := range s.app.Classes {
		r := find(i)
		if groups[r] == nil {
			order = append(order, r)
		}
		groups[r] = append(groups[r], cl)
	}
	for _, r := range order {
		s.shards = append(s.shards, s.newShard(groups[r]))
	}
}

// newShard builds the sub-app for a class group: the shared frontend
// plus every service the group's call trees touch, sharing *Service
// values with the parent app (placements are read-only).
func (s *ShardedOptimizer) newShard(classes []*appgraph.Class) *shard {
	services := make(map[appgraph.ServiceID]*appgraph.Service)
	for _, cl := range classes {
		cl.Root.Walk(func(n *appgraph.CallNode) {
			services[n.Service] = s.app.Services[n.Service]
		})
	}
	sub := &appgraph.App{
		Name:     s.app.Name,
		Services: services,
		Classes:  classes,
	}
	return &shard{classes: classes, app: sub, opt: s.newOptimizer(sub)}
}

// newOptimizer returns a shard's Optimizer. Its Solver keeps the shard's
// tableau; the working storage it solves in is its worker's.
func (s *ShardedOptimizer) newOptimizer(app *appgraph.App) *Optimizer {
	return &Optimizer{top: s.top, app: app, cfg: s.cfg, solver: lp.NewSolver()}
}

// Stats reports cumulative solve counters, aggregated over shards.
func (s *ShardedOptimizer) Stats() OptimizerStats {
	out := s.stats
	for _, sh := range s.shards {
		st := sh.opt.Stats()
		out.Builds += st.Builds
		out.WarmSolves += st.WarmSolves
		out.KeptSolves += st.KeptSolves
		out.DualRepairs += st.DualRepairs
		out.ColdSolves += st.ColdSolves
	}
	return out
}

// Optimize solves every dirty subproblem and merges the sub-plans into
// one versioned plan. Subproblems whose inputs are unchanged within
// epsilon reuse their cached sub-plan without solving.
//
// It fingerprints every shard, solves the dirty ones concurrently, then
// commits in shard order exactly what solving them one after another
// would have: the counters, and on an error the first failing shard's,
// with every later shard left as it was but for its kept tableau, which
// every shard after the failing one drops (the serial loop too): a
// discarded solve has moved it on.
func (s *ShardedOptimizer) Optimize(demand Demand, profiles Profiles, version uint64) (*Plan, error) {
	s.refreshProbes(profiles)
	if len(s.shards) > 1 {
		if err := s.checkFrontendCapacity(demand); err != nil {
			return nil, err
		}
	}
	s.dirty = s.dirty[:0]
	for _, sh := range s.shards {
		fp := s.fingerprint(sh, demand)
		if sh.plan != nil && fingerprintsEqual(sh.fp, fp, s.skipEps) {
			continue
		}
		sh.pending = append(sh.pending[:0], fp...)
		sh.before = *sh.opt
		s.dirty = append(s.dirty, sh)
	}
	s.solveDirty(demand, profiles, version)
	dirty := s.dirty
	for i, sh := range s.shards {
		if len(dirty) == 0 || dirty[0] != sh {
			s.stats.SkippedSolves++
			s.plans[i] = sh.plan
			continue
		}
		dirty = dirty[1:]
		sh.race.count(&s.stats)
		if sh.err != nil {
			for _, later := range dirty {
				*later.opt = later.before
			}
			for _, later := range s.shards[i+1:] {
				later.opt.solver.Forget()
			}
			return nil, sh.err
		}
		s.stats.SubSolves++
		sh.fp, sh.pending = sh.pending, sh.fp
		sh.plan = sh.next
		s.plans[i] = sh.plan
	}
	return s.merge(profiles, version), nil
}

// solveDirty solves this tick's dirty shards on min(GOMAXPROCS, dirty)
// workers, each in its own Workspace; a shard's results land in its own
// fields. The calling goroutine is one of the workers, so one dirty
// shard starts no goroutine.
func (s *ShardedOptimizer) solveDirty(demand Demand, profiles Profiles, version uint64) {
	if len(s.dirty) == 0 {
		return // an all-skip tick allocates nothing here
	}
	workers := min(runtime.GOMAXPROCS(0), len(s.dirty))
	for len(s.work) < workers {
		s.work = append(s.work, lp.NewWorkspace())
	}
	var next atomic.Int64
	work := func(w *lp.Workspace) {
		for k := next.Add(1) - 1; k < int64(len(s.dirty)); k = next.Add(1) - 1 {
			sh := s.dirty[k]
			sh.next, sh.race, sh.err = s.solveShard(sh, w, demand, profiles, version)
		}
	}
	var wg sync.WaitGroup
	for _, w := range s.work[1:workers] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(s.work[0])
	wg.Wait()
}

// refreshProbes brings the pools' cached numbers up to date with this
// tick's profiles. The queueing model is an interface, so the
// fingerprint probes it numerically (capacity and mid-load sojourn
// characterize every model in queuemodel within the skip epsilon).
func (s *ShardedOptimizer) refreshProbes(profiles Profiles) {
	for i := range s.probes {
		p := &s.probes[i]
		prof, ok := profiles.Get(p.key.Service, p.key.Cluster)
		if ok == p.ok && prof == p.prof {
			continue
		}
		s.merged = nil // its loads were priced at the old profile
		*p = poolProbe{key: p.key, prof: prof, ok: ok, fp: noProfile}
		if !ok {
			continue
		}
		capacity := prof.Model.Capacity()
		p.fp = [4]float64{float64(prof.Servers), prof.RefServiceTime.Seconds(), capacity, prof.Model.SojournSeconds(0.5 * capacity)}
		if p.key.Service == s.app.FrontendService() {
			var segs []queuemodel.Segment
			segs, p.widthErr = queuemodel.Linearize(prof.Model, s.cfg.BreakFracs)
			p.width = queuemodel.TotalWidth(segs)
		}
	}
}

// fingerprint captures a shard's solve inputs as a flat float vector in
// the compiled order: per-class demand by cluster, then per-pool profile
// probes. The vector lives in a buffer the next call overwrites.
//
//slate:hot
func (s *ShardedOptimizer) fingerprint(sh *shard, demand Demand) []float64 {
	s.fpBuf = s.fpBuf[:0]
	for _, cl := range sh.classes {
		per := demand[cl.Name]
		for _, c := range s.clusters {
			s.fpBuf = append(s.fpBuf, per[c])
		}
	}
	for _, p := range sh.pools {
		s.fpBuf = append(s.fpBuf, p.fp[:]...)
	}
	return s.fpBuf
}

// fingerprintsEqual compares input vectors with a purely relative
// epsilon. A zero entry only ever matches another zero: under an
// absolute floor (eps·max(1, |a|, |b|)) a 0 → small swing — exactly
// what the forecaster injects when a quiet stream first stirs — would
// compare "equal" and wrongly skip the shard's re-solve (pinned by
// TestShardDirtyOnZeroToSmallSwing).
//
//slate:hot
func fingerprintsEqual(a, b []float64, eps float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.IsNaN(a[i]) || math.IsNaN(b[i]) {
			return false
		}
		if a[i] == b[i] { //slate:nolint floatcmp -- fast path: unchanged inputs recompute to bit-identical fingerprint entries
			continue
		}
		if a[i] == 0 || b[i] == 0 { //slate:nolint floatcmp -- zero ↔ nonzero must always read as dirty, however small the value
			return false
		}
		if math.Abs(a[i]-b[i]) > eps*math.Max(math.Abs(a[i]), math.Abs(b[i])) {
			return false
		}
	}
	return true
}

// checkFrontendCapacity rejects demand the one-shard LP would find
// infeasible but the shards individually would not: every shard prices
// only its own classes' constant root load on the frontend pools, so
// the aggregate across shards must be pre-checked against each pool's
// PWL capacity.
func (s *ShardedOptimizer) checkFrontendCapacity(demand Demand) error {
	for _, p := range s.frontend {
		prof, c := p.prof, p.key.Cluster
		if !p.ok {
			return fmt.Errorf("core: no latency profile for pool %s", p.key)
		}
		if p.widthErr != nil {
			return fmt.Errorf("core: linearizing pool %s: %w", p.key, p.widthErr)
		}
		var load float64
		for _, cl := range s.app.Classes {
			scale := 1.0
			if prof.RefServiceTime > 0 {
				scale = cl.Root.Work.MeanServiceTime.Seconds() / prof.RefServiceTime.Seconds()
			}
			load += demand[cl.Name][c] * scale
		}
		// Robust shards fill their frontend segments to the worst case
		// in the uncertainty set — nominal plus the top-Γ per-class
		// margin increments, budgeted per shard exactly as each shard's
		// own rob[p][c] rows are — so the aggregate pre-check must add
		// the same increments or shards would individually accept a
		// worst-case total the one-shard robust LP rejects.
		if s.cfg.robustActive() {
			for _, sh := range s.shards {
				incs := make([]float64, 0, len(sh.classes))
				for _, cl := range sh.classes {
					scale := 1.0
					if prof.RefServiceTime > 0 {
						scale = cl.Root.Work.MeanServiceTime.Seconds() / prof.RefServiceTime.Seconds()
					}
					incs = append(incs, s.cfg.DemandMargin*demand[cl.Name][c]*scale)
				}
				sort.Sort(sort.Reverse(sort.Float64Slice(incs)))
				g := s.cfg.Budget
				if g <= 0 || g > len(incs) {
					g = len(incs)
				}
				for _, inc := range incs[:g] {
					load += inc
				}
			}
		}
		if load > p.width+1e-9 {
			return fmt.Errorf("core: routing LP infeasible: offered demand exceeds modeled capacity (utilization cap %.0f%%)",
				lastFrac(s.cfg.BreakFracs)*100)
		}
	}
	return nil
}

// merge combines sub-plans into one plan. Rule keys are disjoint across
// shards (they carry the class), so rules merge by union. Pool loads
// overlap only on the frontend pools; overlapping loads sum their
// standard RPS and re-derive utilization and sojourn from the profile.
//
// The result is a function of the sub-plans (immutable once solved) and
// of the profiles its loads were priced at: while every sub-plan pointer
// is the last merge's and no profile has changed since, the last result
// is returned again, re-stamped with this version over the shared rules.
func (s *ShardedOptimizer) merge(profiles Profiles, version uint64) *Plan {
	if s.merged != nil && slices.Equal(s.plans, s.mergedFrom) {
		out := *s.merged
		out.Table = out.Table.WithVersion(version)
		s.merged = &out
		return s.merged
	}
	rules := make(map[routing.Key]routing.Distribution)
	out := &Plan{PredictedMeanLatency: make(map[string]time.Duration)}
	loads := make(map[PoolKey]float64)
	for _, p := range s.plans {
		for _, k := range p.Table.Keys() {
			d, _ := p.Table.Get(k)
			rules[k] = d
		}
		out.Objective += p.Objective
		out.EgressPerSecond += p.EgressPerSecond
		out.EgressBytesPerSecond += p.EgressBytesPerSecond
		for class, lat := range p.PredictedMeanLatency {
			out.PredictedMeanLatency[class] = lat
		}
		for _, pl := range p.Loads {
			loads[pl.Key] += pl.StdRPS
		}
	}
	out.Table = routing.NewTable(version, rules)
	for key, std := range loads {
		pl := PoolLoad{Key: key, StdRPS: std}
		if prof, ok := profiles.Get(key.Service, key.Cluster); ok {
			if capStd := prof.Model.Capacity(); capStd > 0 {
				pl.Utilization = std / capStd
			}
			pl.PredictedSojourn = prof.Model.Sojourn(std)
		}
		out.Loads = append(out.Loads, pl)
	}
	sortLoads(out.Loads)
	s.merged, s.mergedFrom = out, append(s.mergedFrom[:0], s.plans...)
	return out
}
