package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/lp"
	"github.com/servicelayernetworking/slate/internal/queuemodel"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// Reference implementations: the full-recompute tick of commit fa64b4b —
// fingerprint, merge, checkFrontendCapacity, Optimize, updateDemand, Tick
// and Prime, bodies kept verbatim with the receiver spelled out — as what
// the cached steady path must reproduce. refCheckFrontendCapacity's
// robust increments are the box's, every class's: the Bertsimas–Sim
// budget it also took has left the optimizer. SteadyTee runs a live controller
// and a reference one side by side; steady_test.go (package core_test, so
// that it can import the simulator) feeds it the experiments' streams.

func refFingerprint(s *ShardedOptimizer, sh *shard, demand Demand, profiles Profiles) []float64 {
	clusters := s.top.ClusterIDs()
	fp := make([]float64, 0, len(sh.classes)*len(clusters)+4*len(sh.app.Services)*len(clusters))
	for _, cl := range sh.classes {
		for _, c := range clusters {
			fp = append(fp, demand[cl.Name][c])
		}
	}
	sids := make([]string, 0, len(sh.app.Services))
	for sid := range sh.app.Services {
		sids = append(sids, string(sid))
	}
	sort.Strings(sids)
	for _, sid := range sids {
		svc := sh.app.Services[appgraph.ServiceID(sid)]
		for _, c := range svc.Clusters(s.top) {
			prof, ok := profiles.Get(appgraph.ServiceID(sid), c)
			if !ok {
				fp = append(fp, math.NaN(), math.NaN(), math.NaN(), math.NaN())
				continue
			}
			capacity := prof.Model.Capacity()
			fp = append(fp,
				float64(prof.Servers),
				prof.RefServiceTime.Seconds(),
				capacity,
				prof.Model.SojournSeconds(0.5*capacity),
			)
		}
	}
	return fp
}

func refCheckFrontendCapacity(s *ShardedOptimizer, demand Demand, profiles Profiles) error {
	frontend := s.app.FrontendService()
	svc := s.app.Services[frontend]
	for _, c := range svc.Clusters(s.top) {
		prof, ok := profiles.Get(frontend, c)
		if !ok {
			return fmt.Errorf("core: no latency profile for pool %s", PoolKey{Service: frontend, Cluster: c})
		}
		segs, err := queuemodel.Linearize(prof.Model, s.cfg.BreakFracs)
		if err != nil {
			return fmt.Errorf("core: linearizing pool %s: %w", PoolKey{Service: frontend, Cluster: c}, err)
		}
		var load float64
		for _, cl := range s.app.Classes {
			scale := 1.0
			if prof.RefServiceTime > 0 {
				scale = cl.Root.Work.MeanServiceTime.Seconds() / prof.RefServiceTime.Seconds()
			}
			load += demand[cl.Name][c] * scale
		}
		if s.cfg.DemandMargin > 0 {
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
				g := len(incs)
				for _, inc := range incs[:g] {
					load += inc
				}
			}
		}
		if load > queuemodel.TotalWidth(segs)+1e-9 {
			return fmt.Errorf("core: routing LP infeasible: offered demand exceeds modeled capacity (utilization cap %.0f%%)",
				lastFrac(s.cfg.BreakFracs)*100)
		}
	}
	return nil
}

func refMerge(plans []*Plan, profiles Profiles, version uint64) *Plan {
	rules := make(map[routing.Key]routing.Distribution)
	out := &Plan{PredictedMeanLatency: make(map[string]time.Duration)}
	loads := make(map[PoolKey]float64)
	for _, p := range plans {
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
	return out
}

func refOptimize(s *ShardedOptimizer, demand Demand, profiles Profiles, version uint64) (*Plan, error) {
	if len(s.shards) > 1 {
		if err := refCheckFrontendCapacity(s, demand, profiles); err != nil {
			return nil, err
		}
	}
	plans := make([]*Plan, len(s.shards))
	if len(s.work) == 0 {
		s.work = append(s.work, lp.NewWorkspace())
	}
	for i, sh := range s.shards {
		fp := refFingerprint(s, sh, demand, profiles)
		if sh.plan != nil && fingerprintsEqual(sh.fp, fp, s.skipEps) {
			s.stats.SkippedSolves++
			plans[i] = sh.plan
			continue
		}
		sol, race, err := s.solveShard(sh, s.work[0], demand, profiles, version)
		race.count(&s.stats)
		if err != nil {
			// The shards after a failing one drop their kept tableaux, as
			// the concurrent loop's do.
			for _, later := range s.shards[i+1:] {
				later.opt.solver.Forget()
			}
			return nil, err
		}
		s.stats.SubSolves++
		plan := sh.opt.f.extract(sol, demand, version)
		sh.fp = fp
		sh.plan = plan
		plans[i] = plan
	}
	return refMerge(plans, profiles, version), nil
}

func refUpdateDemand(c *Controller, stats []telemetry.WindowStats) {
	frontend := string(c.app.FrontendService())
	seen := make(map[string]map[topology.ClusterID]bool)
	alpha := c.cfg.DemandSmoothing
	for _, ws := range stats {
		if ws.Key.Service != frontend {
			continue
		}
		class := ws.Key.Class
		if c.app.Class(class) == nil {
			continue
		}
		cl := topology.ClusterID(ws.Key.Cluster)
		if c.demand[class] == nil {
			c.demand[class] = make(map[topology.ClusterID]float64)
		}
		old, had := c.demand[class][cl]
		if had {
			c.demand[class][cl] = (1-alpha)*old + alpha*ws.RPS
		} else {
			c.demand[class][cl] = ws.RPS
		}
		if seen[class] == nil {
			seen[class] = make(map[topology.ClusterID]bool)
		}
		seen[class][cl] = true
	}
	for class, per := range c.demand {
		for cl, v := range per {
			if seen[class] == nil || !seen[class][cl] {
				per[cl] = (1 - alpha) * v
				if per[cl] < 1e-6 {
					delete(per, cl)
				}
			}
		}
	}
}

// refTick is the parent's Controller.Tick. It also returns the merged
// plan of the tick (nil when the tick did not reach a successful
// Optimize), which the parent dropped after taking its table.
func refTick(c *Controller, stats []telemetry.WindowStats, window time.Duration) (*routing.Table, *Plan, error) {
	refUpdateDemand(c, stats)
	c.observeForecast(stats)
	if c.cfg.LearnProfiles {
		c.history.Observe(stats)
		FitProfiles(c.profs, c.history.Samples())
	}

	measured, haveMeasured := c.measuredObjective(stats, window)

	if c.cfg.GuardRegression && haveMeasured && c.haveLastObj && c.prev != nil && !c.holdAfterRevert {
		if measured > c.lastObjective*(1+guardTolerance) {
			c.cur = c.prev
			c.prev = nil
			c.holdAfterRevert = true
			c.reverts++
			c.lastObjective = measured
			return c.cur, nil, nil
		}
	}
	if c.holdAfterRevert {
		c.holdAfterRevert = false
		c.lastObjective = measured
		c.haveLastObj = haveMeasured
		return c.cur, nil, nil
	}

	demand := c.planDemand()
	if !hasDemand(demand) {
		c.lastObjective = measured
		c.haveLastObj = haveMeasured
		return c.cur, nil, nil
	}

	c.version++
	plan, err := refOptimize(c.opt, demand, c.profs, c.version)
	if err != nil {
		if errors.Is(err, lp.ErrIterLimit) {
			c.iterLimitHolds++
			c.lastObjective = measured
			c.haveLastObj = haveMeasured
			return c.cur, nil, nil
		}
		return c.cur, nil, err
	}
	next := routing.Step(c.cur, plan.Table, c.cfg.MaxStep)
	if len(routing.Diff(c.cur, next)) > 0 {
		c.prev = c.cur
		c.cur = next
	}
	c.lastObjective = measured
	c.haveLastObj = haveMeasured
	return c.cur, plan, nil
}

func refPrime(c *Controller) (*routing.Table, *Plan, error) {
	if !hasDemand(c.demand) {
		return c.cur, nil, nil
	}
	c.version++
	plan, err := refOptimize(c.opt, c.demand, c.profs, c.version)
	if err != nil {
		return c.cur, nil, err
	}
	c.prev = c.cur
	c.cur = plan.Table
	return c.cur, plan, nil
}

// SteadyTee drives a live controller and a full-recompute reference
// controller with the same inputs and records every way they differ.
type SteadyTee struct {
	Live, ref *Controller
	// probe is a third optimizer, never solved, on which the cached
	// fingerprint is compared with the reference one every tick without
	// touching the live controller's caches.
	probe      *ShardedOptimizer
	Mismatches []string
	// Ticks counts Tick calls; Skips and Solves the shard decisions they
	// took; Restamps the ticks whose merged plan came from the cache;
	// Refits the ticks on which some pool's profile changed.
	Ticks, Skips, Solves, Restamps, Refits int
}

// NewSteadyTee builds the pair from one configuration.
func NewSteadyTee(top *topology.Topology, app *appgraph.App, cfg ControllerConfig) (*SteadyTee, error) {
	live, err := NewController(top, app, cfg)
	if err != nil {
		return nil, err
	}
	ref, err := NewController(top, app, cfg)
	if err != nil {
		return nil, err
	}
	probe := newShardedOptimizer(top, app, cfg.Optimizer, cfg.SkipEpsilon, cfg.Decompose)
	return &SteadyTee{Live: live, ref: ref, probe: probe}, nil
}

func (t *SteadyTee) failf(format string, args ...any) {
	if len(t.Mismatches) < 20 {
		t.Mismatches = append(t.Mismatches, fmt.Sprintf("tick %d: ", t.Ticks)+fmt.Sprintf(format, args...))
	}
}

// SetDemand seeds both controllers (each with its own copy).
func (t *SteadyTee) SetDemand(d Demand) {
	t.Live.SetDemand(copyDemand(d))
	t.ref.SetDemand(copyDemand(d))
}

// Prime primes both controllers and compares them.
func (t *SteadyTee) Prime() (*routing.Table, error) {
	before := t.before()
	tab, err := t.Live.Prime()
	refTab, refPlan, refErr := refPrime(t.ref)
	t.compare("prime", before, tab, err, refTab, refPlan, refErr)
	return tab, err
}

// Tick ticks both controllers and compares them; it returns the live
// controller's answer.
func (t *SteadyTee) Tick(stats []telemetry.WindowStats, window time.Duration) (*routing.Table, error) {
	t.Ticks++
	before := t.before()
	tab, err := t.Live.Tick(stats, window)
	refTab, refPlan, refErr := refTick(t.ref, stats, window)
	t.compare("tick", before, tab, err, refTab, refPlan, refErr)
	return tab, err
}

// Failover replaces both controllers by fresh ones restored from the
// live controller's snapshot after a trip through its JSON encoding, as
// an elected follower's would be.
func (t *SteadyTee) Failover(top *topology.Topology, app *appgraph.App, cfg ControllerConfig) error {
	wire, err := json.Marshal(t.Live.Snapshot())
	if err != nil {
		return err
	}
	next, err := NewSteadyTee(top, app, cfg)
	if err != nil {
		return err
	}
	for _, c := range []*Controller{next.Live, next.ref} {
		var snap ControllerSnapshot
		if err := json.Unmarshal(wire, &snap); err != nil {
			return err
		}
		if err := c.Restore(&snap); err != nil {
			return err
		}
	}
	t.Live, t.ref, t.probe = next.Live, next.ref, next.probe
	return nil
}

// teeBefore is what compare needs of the state before a tick.
type teeBefore struct {
	table  *routing.Table
	plans  [2][]*Plan // both controllers' sub-plan pointers, live first
	merged *Plan
	probes []poolProbe
}

func (t *SteadyTee) before() teeBefore {
	b := teeBefore{table: t.Live.cur, merged: t.Live.opt.merged, probes: append([]poolProbe(nil), t.probe.probes...)}
	for i, c := range []*Controller{t.Live, t.ref} {
		for _, sh := range c.opt.shards {
			b.plans[i] = append(b.plans[i], sh.plan)
		}
	}
	return b
}

func (t *SteadyTee) compare(at string, before teeBefore,
	tab *routing.Table, err error, refTab *routing.Table, refPlan *Plan, refErr error) {
	live, ref := t.Live, t.ref
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.failf("%s: err = %v, reference %v", at, err, refErr)
	}
	if !reflect.DeepEqual(tab, refTab) {
		t.failf("%s: published table differs:\nlive %v\nref  %v", at, tab, refTab)
	}
	if !reflect.DeepEqual(live.demand, ref.demand) {
		t.failf("%s: demand estimate differs: live %v, reference %v", at, live.demand, ref.demand)
	}
	if live.version != ref.version || live.reverts != ref.reverts || live.iterLimitHolds != ref.iterLimitHolds ||
		!reflect.DeepEqual(live.prev, ref.prev) {
		t.failf("%s: version/reverts/holds/prev = %d/%d/%d/%v, reference %d/%d/%d/%v", at,
			live.version, live.reverts, live.iterLimitHolds, live.prev, ref.version, ref.reverts, ref.iterLimitHolds, ref.prev)
	}
	if ls, rs := live.OptimizerStats(), ref.OptimizerStats(); ls != rs {
		t.failf("%s: OptimizerStats = %+v, reference %+v", at, ls, rs)
	}

	// Per shard: the fingerprint function itself on this tick's inputs,
	// the stored fingerprint and sub-plan, and whether the shard solved.
	demand := live.planDemand()
	t.probe.refreshProbes(live.profs)
	if t.Ticks > 1 && !reflect.DeepEqual(t.probe.probes, before.probes) {
		t.Refits++
	}
	if len(t.probe.shards) > 1 {
		got, want := t.probe.checkFrontendCapacity(demand), refCheckFrontendCapacity(t.probe, demand, live.profs)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.failf("%s: checkFrontendCapacity = %v, reference %v", at, got, want)
		}
	}
	for i, sh := range live.opt.shards {
		rsh, psh := ref.opt.shards[i], t.probe.shards[i]
		got, want := t.probe.fingerprint(psh, demand), refFingerprint(t.probe, psh, demand, live.profs)
		if !sameBits(got, want) {
			t.failf("%s: shard %d fingerprint differs:\nlive %v\nref  %v", at, i, got, want)
		}
		if !sameBits(sh.fp, rsh.fp) {
			t.failf("%s: shard %d stored fingerprint differs:\nlive %v\nref  %v", at, i, sh.fp, rsh.fp)
		}
		solved, refSolved := sh.plan != before.plans[0][i], rsh.plan != before.plans[1][i]
		if solved != refSolved {
			t.failf("%s: shard %d solved = %v, reference %v", at, i, solved, refSolved)
		}
		if !reflect.DeepEqual(sh.plan, rsh.plan) {
			t.failf("%s: shard %d sub-plan differs", at, i)
		}
		if at == "tick" && sh.plan != nil {
			if solved {
				t.Solves++
			} else {
				t.Skips++
			}
		}
	}

	// The merged plan of a tick that reached a successful Optimize.
	merged := live.opt.merged
	if merged == before.merged {
		merged = nil // left over from an earlier tick, or dropped by a refit with no merge after it
	}
	if (merged == nil) != (refPlan == nil) {
		t.failf("%s: merged a plan = %v, reference %v", at, merged != nil, refPlan != nil)
	} else if merged != nil {
		if !reflect.DeepEqual(merged, refPlan) {
			t.failf("%s: merged plan differs:\nlive %+v\nref  %+v", at, merged, refPlan)
		}
		// A re-stamped plan shares its loads with the plan it was cut from.
		if p := before.merged; p != nil && len(p.Loads) > 0 && &p.Loads[0] == &merged.Loads[0] {
			t.Restamps++
		}
	}

	// routing.Equal ≡ len(Diff) == 0 on the pairs the controller compares.
	tables := []*routing.Table{tab}
	if refPlan != nil {
		tables = append(tables, refPlan.Table)
	}
	for _, next := range tables {
		if got, want := routing.Equal(before.table, next), len(routing.Diff(before.table, next)) == 0; got != want {
			t.failf("%s: routing.Equal = %v but len(Diff) == 0 is %v", at, got, want)
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
