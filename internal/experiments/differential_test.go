package experiments

import (
	"math"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/fault"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/simrun"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// teePolicy drives the simulation with the one-shard ("monolithic")
// controller while feeding the identical telemetry stream to a shadow
// decomposed controller — the same pipeline partitioned into N shards —
// asserting every tick that the two emit equivalent tables. This is the
// differential proof that decomposition is an optimization, not a
// semantic change.
type teePolicy struct {
	t      *testing.T
	mono   *core.Controller
	shadow *core.Controller
	ticks  int
}

func (p *teePolicy) Name() string { return "slate" }

func (p *teePolicy) Init() (*routing.Table, error) {
	shadowTab, err := p.shadow.Prime()
	if err != nil {
		return nil, err
	}
	monoTab, err := p.mono.Prime()
	if err != nil {
		return nil, err
	}
	tablesEquivalent(p.t, "prime", monoTab, shadowTab, 1e-6)
	return monoTab, nil
}

func (p *teePolicy) Tick(stats []telemetry.WindowStats, window time.Duration) (*routing.Table, error) {
	monoTab, monoErr := p.mono.Tick(stats, window)
	shadowTab, shadowErr := p.shadow.Tick(stats, window)
	if (monoErr == nil) != (shadowErr == nil) {
		p.t.Errorf("tick %d: monolithic err = %v, decomposed err = %v", p.ticks, monoErr, shadowErr)
	}
	if monoErr == nil && shadowErr == nil {
		tablesEquivalent(p.t, "tick", monoTab, shadowTab, 1e-6)
	}
	p.ticks++
	return monoTab, monoErr
}

// tablesEquivalent compares routing decisions over the union of keys
// and destination clusters of both tables.
func tablesEquivalent(t *testing.T, at string, a, b *routing.Table, eps float64) {
	t.Helper()
	keys := map[routing.Key]bool{}
	for _, k := range a.Keys() {
		keys[k] = true
	}
	for _, k := range b.Keys() {
		keys[k] = true
	}
	for k := range keys {
		da, okA := a.Get(k)
		db, okB := b.Get(k)
		clusters := map[topology.ClusterID]bool{}
		if okA {
			for _, c := range da.Clusters() {
				clusters[c] = true
			}
		}
		if okB {
			for _, c := range db.Clusters() {
				clusters[c] = true
			}
		}
		for c := range clusters {
			var wa, wb float64
			if okA {
				wa = da.Weight(c)
			}
			if okB {
				wb = db.Weight(c)
			}
			if math.Abs(wa-wb) > eps {
				t.Errorf("%s: rule %v → %s: monolithic %v vs decomposed %v", at, k, c, wa, wb)
				return
			}
		}
	}
}

// differentialCase builds one scenario plus the controller config its
// figure uses; the test runs it under the tee.
type differentialCase struct {
	name string
	scn  simrun.Scenario
	cfg  core.ControllerConfig
}

func differentialCases(t *testing.T) []differentialCase {
	t.Helper()
	const dur, warm = 24 * time.Second, 4 * time.Second

	// fig6a: two-cluster chain, west overloaded.
	topA := topology.TwoClusters(40 * time.Millisecond)
	appA := chainApp(topology.West, topology.East)
	demandA := map[topology.ClusterID]float64{topology.West: 900, topology.East: 100}

	// fig6b: GCP topology, OR and IOW overloaded.
	topB := topology.GCPTopology()
	appB := chainApp(topB.ClusterIDs()...)
	demandB := map[topology.ClusterID]float64{
		topology.OR: 1090, topology.UT: 100, topology.IOW: 1090, topology.SC: 100,
	}

	// fig6c: anomaly detection with DB only in east, degraded west MP.
	topC := topology.TwoClusters(40 * time.Millisecond)
	appC := appgraph.AnomalyDetection(appgraph.AnomalyOptions{
		Clusters:    []topology.ClusterID{topology.West, topology.East},
		DBClusters:  []topology.ClusterID{topology.East},
		ProcessTime: 8 * time.Millisecond,
		QueryTime:   4 * time.Millisecond,
		Pool:        appgraph.ReplicaPool{Replicas: 3, Concurrency: 4},
	})
	appC.Services[appgraph.AnomalyMP].Placement[topology.West] = appgraph.ReplicaPool{Replicas: 1, Concurrency: 4}
	demandC := map[topology.ClusterID]float64{topology.West: 600, topology.East: 100}

	// fig6d: two traffic classes sharing one worker pool.
	topD := topology.TwoClusters(30 * time.Millisecond)
	appD := appgraph.TwoClassApp(appgraph.TwoClassOptions{
		LightTime: 2 * time.Millisecond,
		HeavyTime: 20 * time.Millisecond,
		Pool:      appgraph.ReplicaPool{Replicas: 2, Concurrency: 4},
	})
	demandDL := map[topology.ClusterID]float64{topology.West: 400, topology.East: 50}
	demandDH := map[topology.ClusterID]float64{topology.West: 330, topology.East: 50}

	// chaos: the fault schedule from the Chaos experiment, compressed.
	sched := fault.NewSchedule()
	sched.Outage(fault.Global, 6*time.Second, 8*time.Second)
	sched.Partition(topology.West, topology.East, 8*time.Second, 5*time.Second)
	sched.Flap(fault.Global, 16*time.Second, 2, 1*time.Second, 3*time.Second)

	return []differentialCase{
		{
			name: "fig6a",
			scn: simrun.Scenario{
				Name: "fig6a", Top: topA, App: appA,
				Workload: steady("default", demandA),
				Duration: dur, Warmup: warm, Seed: 42,
				ControlPeriod: 2 * time.Second,
			},
		},
		{
			name: "fig6b",
			scn: simrun.Scenario{
				Name: "fig6b", Top: topB, App: appB,
				Workload: steady("default", demandB),
				Duration: dur, Warmup: warm, Seed: 42,
				ControlPeriod: 2 * time.Second,
			},
		},
		{
			name: "fig6c",
			scn: simrun.Scenario{
				Name: "fig6c", Top: topC, App: appC,
				Workload: steady("detect", demandC),
				Duration: dur, Warmup: warm, Seed: 42,
				ControlPeriod: 2 * time.Second,
			},
			cfg: core.ControllerConfig{Optimizer: core.Config{LatencyWeight: 1, CostWeight: 1e4}},
		},
		{
			name: "fig6d",
			scn: simrun.Scenario{
				Name: "fig6d", Top: topD, App: appD,
				Workload: append(steady("L", demandDL), steady("H", demandDH)...),
				Duration: dur, Warmup: warm, Seed: 42,
				ControlPeriod: 2 * time.Second,
			},
		},
		{
			name: "chaos",
			scn: simrun.Scenario{
				Name: "chaos", Top: topA, App: appA,
				Workload: steady("default", map[topology.ClusterID]float64{topology.West: 700, topology.East: 100}),
				Duration: dur, Warmup: warm,
				ControlPeriod: 2 * time.Second,
				Seed:          42,
				Faults:        sched,
				RuleTTL:       6 * time.Second,
			},
		},
	}
}

// TestDecomposedMatchesMonolithic proves the partition is
// behavior-preserving: across every fig6 scenario and the chaos fault
// schedule, an N-shard controller fed the same telemetry as the
// one-shard controller (whose single LP is the one Problem.Optimize
// builds) emits equivalent routing tables on every tick.
func TestDecomposedMatchesMonolithic(t *testing.T) {
	for _, tc := range differentialCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			demand := demandFromWorkload(tc.scn)
			newCtrl := func(decompose bool) *core.Controller {
				cfg := tc.cfg
				cfg.Decompose = decompose
				ctrl, err := core.NewController(tc.scn.Top, tc.scn.App, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ctrl.SetDemand(demand)
				return ctrl
			}
			tee := &teePolicy{t: t, mono: newCtrl(false), shadow: newCtrl(true)}
			if _, err := simrun.Run(tc.scn, tee); err != nil {
				t.Fatal(err)
			}
			if tee.ticks == 0 {
				t.Fatal("tee policy never ticked; differential comparison is vacuous")
			}
			if n := tee.mono.OptimizerStats().Shards; n != 1 {
				t.Errorf("Decompose: false controller reports %d shards, want 1", n)
			}
			if tee.shadow.OptimizerStats().Shards == 0 {
				t.Errorf("decomposed controller reports 0 shards")
			}
		})
	}
}

// demandFromWorkload recovers the priming demand from the scenario's
// steady workload phases so both controllers start identically.
func demandFromWorkload(scn simrun.Scenario) core.Demand {
	d := core.Demand{}
	for _, spec := range scn.Workload {
		if d[spec.Class] == nil {
			d[spec.Class] = map[topology.ClusterID]float64{}
		}
		d[spec.Class][spec.Cluster] += spec.Phases[0].RPS
	}
	return d
}
