package baseline

import (
	"math"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

func chainApp() *appgraph.App {
	return appgraph.LinearChain(appgraph.ChainOptions{
		Services:        3,
		MeanServiceTime: 10 * time.Millisecond,
		Pool:            appgraph.ReplicaPool{Replicas: 2, Concurrency: 4},
		Clusters:        []topology.ClusterID{topology.West, topology.East},
	})
}

func TestDefaultCapacities(t *testing.T) {
	top := topology.TwoClusters(40 * time.Millisecond)
	app := chainApp()
	caps := DefaultCapacities(app, top, core.Demand{}, 0.8)
	// svc-1 west: 8 servers at 10ms -> nominal 800, threshold 640.
	got := caps[core.PoolKey{Service: "svc-1", Cluster: topology.West}]
	if math.Abs(got-640) > 1 {
		t.Errorf("capacity = %v, want 640", got)
	}
	if got := caps[core.PoolKey{Service: "gateway", Cluster: topology.East}]; got <= 0 {
		t.Error("gateway capacity missing")
	}
}

func TestWaterfallBelowThresholdStaysLocal(t *testing.T) {
	top := topology.TwoClusters(40 * time.Millisecond)
	app := chainApp()
	demand := core.Demand{"default": {topology.West: 300, topology.East: 100}}
	caps := DefaultCapacities(app, top, demand, 0.8)
	tab, err := Waterfall(top, app, demand, caps, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 0 {
		t.Errorf("below threshold should produce no spill rules, got %d: %s", tab.Len(), tab)
	}
}

func TestWaterfallSpillsExactExcess(t *testing.T) {
	top := topology.TwoClusters(40 * time.Millisecond)
	app := chainApp()
	// West 900 vs threshold 640: spill exactly 260/900 of svc traffic.
	demand := core.Demand{"default": {topology.West: 900, topology.East: 100}}
	caps := DefaultCapacities(app, top, demand, 0.8)
	tab, err := Waterfall(top, app, demand, caps, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := tab.Lookup("svc-1", routing.AnyClass, topology.West)
	wantEast := (900.0 - 640.0) / 900.0
	if got := d.Weight(topology.East); math.Abs(got-wantEast) > 1e-9 {
		t.Errorf("east weight = %v, want %v", got, wantEast)
	}
	// Class-blind: the same rule serves every class.
	d2 := tab.Lookup("svc-1", "whatever", topology.West)
	if !almostEqual(d2.Weight(topology.East), d.Weight(topology.East)) {
		t.Error("waterfall should be class-blind")
	}
}

func TestWaterfallOverGlobalCapacityKeepsRemainderLocal(t *testing.T) {
	top := topology.TwoClusters(40 * time.Millisecond)
	app := chainApp()
	// West 900, East 600: east headroom = 640-600 = 40. West spills only
	// 40 and keeps the rest despite being over threshold.
	demand := core.Demand{"default": {topology.West: 900, topology.East: 600}}
	caps := DefaultCapacities(app, top, demand, 0.8)
	tab, err := Waterfall(top, app, demand, caps, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := tab.Lookup("svc-1", routing.AnyClass, topology.West)
	if got, want := d.Weight(topology.East), 40.0/900.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("east weight = %v, want %v", got, want)
	}
	if got, want := d.Weight(topology.West), 860.0/900.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("west weight = %v, want %v", got, want)
	}
}

func TestWaterfallGreedyPrefersNearest(t *testing.T) {
	// GCP topology: OR overloaded; UT nearest (30ms) has headroom and
	// takes the spill; SC (66ms) receives nothing even though it has
	// plenty of capacity — the paper's §4.2 suboptimality.
	top := topology.GCPTopology()
	app := appgraph.LinearChain(appgraph.ChainOptions{
		Services:        3,
		MeanServiceTime: 10 * time.Millisecond,
		Pool:            appgraph.ReplicaPool{Replicas: 2, Concurrency: 4},
		Clusters:        top.ClusterIDs(),
	})
	demand := core.Demand{"default": {
		topology.OR: 900, topology.UT: 100, topology.IOW: 100, topology.SC: 100,
	}}
	caps := DefaultCapacities(app, top, demand, 0.8)
	tab, err := Waterfall(top, app, demand, caps, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := tab.Lookup("svc-1", routing.AnyClass, topology.OR)
	if d.Weight(topology.UT) <= 0 {
		t.Errorf("OR should spill to UT (nearest): %v", d)
	}
	if !almostEqual(d.Weight(topology.SC), 0) {
		t.Errorf("greedy waterfall should not touch SC while UT has headroom: %v", d)
	}
}

func TestWaterfallBothOverloadedFloodUT(t *testing.T) {
	// Paper Fig. 5b: OR and IOW overloaded; both greedily pick UT, which
	// saturates; only then does SC receive anything.
	top := topology.GCPTopology()
	app := appgraph.LinearChain(appgraph.ChainOptions{
		Services:        3,
		MeanServiceTime: 10 * time.Millisecond,
		Pool:            appgraph.ReplicaPool{Replicas: 2, Concurrency: 4},
		Clusters:        top.ClusterIDs(),
	})
	demand := core.Demand{"default": {
		topology.OR: 1000, topology.UT: 100, topology.IOW: 1000, topology.SC: 100,
	}}
	caps := DefaultCapacities(app, top, demand, 0.8)
	tab, err := Waterfall(top, app, demand, caps, 1)
	if err != nil {
		t.Fatal(err)
	}
	dOR := tab.Lookup("svc-1", routing.AnyClass, topology.OR)
	dIOW := tab.Lookup("svc-1", routing.AnyClass, topology.IOW)
	utLoad := 100 + 1000*dOR.Weight(topology.UT) + 1000*dIOW.Weight(topology.UT)
	if utLoad < 639 {
		t.Errorf("UT should be filled to its 640 threshold, got %v", utLoad)
	}
	spillSC := dOR.Weight(topology.SC) + dIOW.Weight(topology.SC)
	if spillSC <= 0 {
		t.Error("with UT saturated, someone must spill to SC")
	}
}

func TestWaterfallAbsentServiceFailsOver(t *testing.T) {
	top := topology.TwoClusters(40 * time.Millisecond)
	app := appgraph.AnomalyDetection(appgraph.AnomalyOptions{})
	demand := core.Demand{"detect": {topology.West: 100, topology.East: 50}}
	caps := DefaultCapacities(app, top, demand, 0.8)
	tab, err := Waterfall(top, app, demand, caps, 1)
	if err != nil {
		t.Fatal(err)
	}
	// DB absent in west: all west DB traffic goes east (at the MP->DB
	// hop, the paper's red arrow).
	d := tab.Lookup(string(appgraph.AnomalyDB), routing.AnyClass, topology.West)
	if w := d.Weight(topology.East); math.Abs(w-1) > 1e-9 {
		t.Errorf("DB west->east = %v, want 1", w)
	}
	// MP exists in west and is not overloaded: stays local (no rule).
	dmp := tab.Lookup(string(appgraph.AnomalyMP), routing.AnyClass, topology.West)
	if w := dmp.Weight(topology.West); math.Abs(w-1) > 1e-9 {
		t.Errorf("MP west local = %v, want 1 (single-hop blindness)", w)
	}
}

func TestWaterfallForcedFailoverBeyondCapacity(t *testing.T) {
	// DB absent in west AND east DB beyond threshold: failover still
	// sends traffic (capacity is a soft limit when there is no replica
	// at all locally).
	top := topology.TwoClusters(40 * time.Millisecond)
	app := appgraph.AnomalyDetection(appgraph.AnomalyOptions{})
	demand := core.Demand{"detect": {topology.West: 5000, topology.East: 50}}
	caps := DefaultCapacities(app, top, demand, 0.8)
	// Don't let FR/MP thresholds interfere: raise them.
	for k := range caps {
		if k.Service != appgraph.AnomalyDB {
			caps[k] = 1e9
		}
	}
	tab, err := Waterfall(top, app, demand, caps, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := tab.Lookup(string(appgraph.AnomalyDB), routing.AnyClass, topology.West)
	if w := d.Weight(topology.East); math.Abs(w-1) > 1e-9 {
		t.Errorf("forced failover east = %v, want 1", w)
	}
}

func TestWaterfallPropagatesSpilledLoadDownstream(t *testing.T) {
	// If svc-1 spills 260 RPS to east, svc-2's east pool sees that
	// spilled load as local arrivals (waterfall decisions compose hop by
	// hop). svc-2 east arrival: 100 (east chain) + 260 = 360 < 640, so
	// svc-2 east has no rule; svc-2 west arrival drops to 640 -> exactly
	// at threshold, no spill either.
	top := topology.TwoClusters(40 * time.Millisecond)
	app := chainApp()
	demand := core.Demand{"default": {topology.West: 900, topology.East: 100}}
	caps := DefaultCapacities(app, top, demand, 0.8)
	tab, err := Waterfall(top, app, demand, caps, 1)
	if err != nil {
		t.Fatal(err)
	}
	d2 := tab.Lookup("svc-2", routing.AnyClass, topology.West)
	if w := d2.Weight(topology.West); math.Abs(w-1) > 1e-9 {
		t.Errorf("svc-2 west should stay local after upstream spill, got %v", d2)
	}
}

func TestLocalityFailover(t *testing.T) {
	top := topology.TwoClusters(40 * time.Millisecond)
	app := appgraph.AnomalyDetection(appgraph.AnomalyOptions{})
	tab, err := LocalityFailover(top, app, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Only one rule: DB from west fails over east.
	if tab.Len() != 1 {
		t.Fatalf("rules = %d, want 1: %s", tab.Len(), tab)
	}
	d := tab.Lookup(string(appgraph.AnomalyDB), routing.AnyClass, topology.West)
	if !almostEqual(d.Weight(topology.East), 1) {
		t.Errorf("failover = %v", d)
	}
}

func TestLocalityFailoverPicksNearest(t *testing.T) {
	top := topology.GCPTopology()
	app := appgraph.AnomalyDetection(appgraph.AnomalyOptions{
		Clusters:   top.ClusterIDs(),
		DBClusters: []topology.ClusterID{topology.IOW, topology.SC},
	})
	tab, err := LocalityFailover(top, app, 1)
	if err != nil {
		t.Fatal(err)
	}
	// From OR, nearest DB host: UT has none; IOW (37ms) beats SC (66ms).
	d := tab.Lookup(string(appgraph.AnomalyDB), routing.AnyClass, topology.OR)
	if !almostEqual(d.Weight(topology.IOW), 1) {
		t.Errorf("OR DB failover = %v, want IOW", d)
	}
}

func TestLocalOnlyIsEmpty(t *testing.T) {
	if LocalOnly().Len() != 0 {
		t.Error("LocalOnly should have no rules")
	}
}

func TestWaterfallControllerTick(t *testing.T) {
	top := topology.TwoClusters(40 * time.Millisecond)
	app := chainApp()
	demand := core.Demand{"default": {topology.West: 900, topology.East: 100}}
	caps := DefaultCapacities(app, top, demand, 0.8)
	c, err := NewController(top, app, caps)
	if err != nil {
		t.Fatal(err)
	}
	stats := []telemetry.WindowStats{
		{Key: telemetry.MetricKey{Service: "gateway", Class: "default", Cluster: string(topology.West)}, RPS: 900},
		{Key: telemetry.MetricKey{Service: "gateway", Class: "default", Cluster: string(topology.East)}, RPS: 100},
	}
	tab, err := c.Tick(stats, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	d := tab.Lookup("svc-1", routing.AnyClass, topology.West)
	if d.Weight(topology.East) <= 0 {
		t.Errorf("controller produced no spill: %v", d)
	}
	if c.Table() != tab {
		t.Error("Table() should return the latest tick result")
	}
}

// TestSetDemandCopies: as in core, the seeded estimate and the caller's
// map are independent in both directions.
func TestSetDemandCopies(t *testing.T) {
	top := topology.TwoClusters(40 * time.Millisecond)
	app := chainApp()
	seed := core.Demand{"default": {topology.West: 400, topology.East: 100}}
	c, err := NewController(top, app, DefaultCapacities(app, top, seed, 0.8))
	if err != nil {
		t.Fatal(err)
	}
	c.SetDemand(seed)
	seed["default"][topology.West] = 1
	if got := c.demand["default"][topology.West]; !almostEqual(got, 400) {
		t.Errorf("controller demand = %v after the caller wrote its own map, want 400", got)
	}
	stats := []telemetry.WindowStats{
		{Key: telemetry.MetricKey{Service: "gateway", Class: "default", Cluster: string(topology.West)}, RPS: 600},
		{Key: telemetry.MetricKey{Service: "gateway", Class: "default", Cluster: string(topology.East)}, RPS: 100},
	}
	if _, err := c.Tick(stats, time.Second); err != nil {
		t.Fatal(err)
	}
	if got := c.demand["default"][topology.West]; !almostEqual(got, 500) { // alpha 0.5
		t.Errorf("smoothed demand = %v, want 500", got)
	}
	if got := seed["default"][topology.West]; !almostEqual(got, 1) {
		t.Errorf("caller's map = %v after Tick, want it untouched at 1", got)
	}
}

func TestWaterfallErrors(t *testing.T) {
	top := topology.TwoClusters(time.Millisecond)
	app := chainApp()
	if _, err := Waterfall(top, app, core.Demand{"default": {topology.West: -1}}, nil, 1); err == nil {
		t.Error("negative demand accepted")
	}
	bad := chainApp()
	bad.Classes = nil
	if _, err := Waterfall(top, bad, core.Demand{}, nil, 1); err == nil {
		t.Error("invalid app accepted")
	}
}

func TestStaticWeighted(t *testing.T) {
	top := topology.TwoClusters(40 * time.Millisecond)
	app := chainApp()
	tab, err := StaticWeighted(top, app, map[topology.ClusterID]map[topology.ClusterID]float64{
		topology.West: {topology.West: 80, topology.East: 20},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := tab.Lookup("svc-1", routing.AnyClass, topology.West)
	if w := d.Weight(topology.East); math.Abs(w-0.2) > 1e-9 {
		t.Errorf("east weight = %v, want 0.2", w)
	}
	// East has no entry: stays local.
	de := tab.Lookup("svc-1", routing.AnyClass, topology.East)
	if !almostEqual(de.Weight(topology.East), 1) {
		t.Errorf("east should stay local: %v", de)
	}
	// Class-blind.
	if !almostEqual(tab.Lookup("svc-1", "anything", topology.West).Weight(topology.East), d.Weight(topology.East)) {
		t.Error("static weighted should be class-blind")
	}
}

func TestStaticWeightedRenormalizesForPartialPlacement(t *testing.T) {
	top := topology.TwoClusters(40 * time.Millisecond)
	app := appgraph.AnomalyDetection(appgraph.AnomalyOptions{})
	tab, err := StaticWeighted(top, app, map[topology.ClusterID]map[topology.ClusterID]float64{
		topology.West: {topology.West: 50, topology.East: 50},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// DB is absent in west: all weight collapses to east.
	d := tab.Lookup(string(appgraph.AnomalyDB), routing.AnyClass, topology.West)
	if w := d.Weight(topology.East); math.Abs(w-1) > 1e-9 {
		t.Errorf("DB east weight = %v, want 1 (renormalized)", w)
	}
}

func TestStaticWeightedValidation(t *testing.T) {
	top := topology.TwoClusters(time.Millisecond)
	app := chainApp()
	if _, err := StaticWeighted(top, app, map[topology.ClusterID]map[topology.ClusterID]float64{
		"mars": {topology.West: 1},
	}, 1); err == nil {
		t.Error("unknown source cluster accepted")
	}
	if _, err := StaticWeighted(top, app, map[topology.ClusterID]map[topology.ClusterID]float64{
		topology.West: {"mars": 1},
	}, 1); err == nil {
		t.Error("unknown destination cluster accepted")
	}
}
