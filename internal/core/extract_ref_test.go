package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/lp"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// refExtract is formulation.extract of commit 425a4c2, kept verbatim
// but for a pool's load, which the LP no longer holds as a column and is
// summed from its link terms as extract does: rules gathered in a map of
// maps and built by NewDistribution, pool loads and sojourns looked up
// by key. The map version of merge is
// refMerge (steady_ref_test.go). ExtractTee holds the live code to both.
func refExtract(f *formulation, sol *lp.Solution, demand Demand, version uint64) *Plan {
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
		var std float64
		for _, lt := range pr.linkTerms {
			std += linkScale(lt, pr.profile) * sol.Value(lt.v)
		}
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

// ExtractTee solves every shard of a decomposed ShardedOptimizer on each
// call, concurrently as a churn tick does, the search racing the simplex
// when armed. From each shard's solution it reads the plan twice, with
// extract and with refExtract, and then merges the shards' plans twice,
// with merge and with refMerge; every pair must agree bit for bit.
type ExtractTee struct {
	opt *ShardedOptimizer
	// Solves counts the shard solutions compared, SearchWins those the
	// search won.
	Solves, SearchWins int
	Mismatches         []string
}

// NewExtractTee builds the optimizer, its race armed when search is set.
func NewExtractTee(top *topology.Topology, app *appgraph.App, cfg Config, search bool) *ExtractTee {
	s := NewShardedOptimizer(top, app, cfg, 0)
	if search {
		s.EnableSearch(RaceConfig{})
	}
	return &ExtractTee{opt: s}
}

func (t *ExtractTee) failf(format string, args ...any) {
	if len(t.Mismatches) < 20 {
		t.Mismatches = append(t.Mismatches, fmt.Sprintf(format, args...))
	}
}

// Solve solves every shard for demand and profiles and compares.
func (t *ExtractTee) Solve(demand Demand, profiles Profiles, version uint64) error {
	s := t.opt
	s.refreshProbes(profiles)
	refs := make([]*Plan, len(s.shards))
	s.dirty = append(s.dirty[:0], s.shards...)
	s.eachDirty(func(sh *shard, w *lp.Workspace) {
		var sol *lp.Solution
		sol, sh.race, sh.err = s.solveShard(sh, w, demand, profiles, version)
		if sh.err == nil {
			sh.next = sh.opt.f.extract(sol, demand, version)
			refs[slices.Index(s.shards, sh)] = refExtract(sh.opt.f, sol, demand, version)
		}
	})
	for i, sh := range s.shards {
		if sh.err != nil {
			return fmt.Errorf("shard %d: %w", i, sh.err)
		}
		t.compare(fmt.Sprintf("v%d shard %d (race outcome %d)", version, i, sh.race), sh.next, refs[i])
		t.Solves++
		if sh.race == searchWon {
			t.SearchWins++
		}
		sh.plan, s.plans[i] = sh.next, sh.next
	}
	t.compare(fmt.Sprintf("v%d merged", version), s.merge(profiles, version), refMerge(s.plans, profiles, version))
	return nil
}

// compare reports every way two plans differ, weights and floats by
// their bits.
func (t *ExtractTee) compare(what string, got, want *Plan) {
	if got.Table.Version != want.Table.Version || !slices.Equal(got.Table.Keys(), want.Table.Keys()) {
		t.failf("%s: version %d, rules %v; want version %d, rules %v", what, got.Table.Version, got.Table.Keys(), want.Table.Version, want.Table.Keys())
		return
	}
	for _, k := range want.Table.Keys() {
		g, _ := got.Table.Get(k)
		w, _ := want.Table.Get(k)
		if gs, ws := slices.Sorted(maps.Keys(g.Weights())), slices.Sorted(maps.Keys(w.Weights())); !slices.Equal(gs, ws) {
			t.failf("%s: rule %v over %v, want %v", what, k, gs, ws)
			continue
		}
		for c := range w.All() {
			if math.Float64bits(g.Weight(c)) != math.Float64bits(w.Weight(c)) {
				t.failf("%s: rule %v weighs %s at %v, want %v", what, k, c, g.Weight(c), w.Weight(c))
			}
		}
	}
	if !slices.Equal(got.Loads, want.Loads) {
		t.failf("%s: loads %v, want %v", what, got.Loads, want.Loads)
	}
	if !maps.Equal(got.PredictedMeanLatency, want.PredictedMeanLatency) {
		t.failf("%s: latencies %v, want %v", what, got.PredictedMeanLatency, want.PredictedMeanLatency)
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"objective", got.Objective, want.Objective},
		{"egress $/s", got.EgressPerSecond, want.EgressPerSecond},
		{"egress B/s", got.EgressBytesPerSecond, want.EgressBytesPerSecond},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.failf("%s: %s %v, want %v", what, f.name, f.got, f.want)
		}
	}
}

// ExtractAllocs solves demand once more and returns, per shard, how
// many rules extract reads off its solution and how many heap
// allocations that takes.
func (t *ExtractTee) ExtractAllocs(demand Demand, profiles Profiles, version uint64) (rules []int, allocs []float64, err error) {
	s := t.opt
	for i, sh := range s.shards {
		sol, _, err := s.solveShard(sh, s.work[0], demand, profiles, version)
		if err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", i, err)
		}
		plan := sh.opt.f.extract(sol, demand, version)
		sh.plan, s.plans[i] = plan, plan
		rules = append(rules, plan.Table.Len())
		allocs = append(allocs, testing.AllocsPerRun(20, func() { sh.opt.f.extract(sol, demand, version) }))
	}
	return rules, allocs, nil
}
