package core

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/forecast"
	"github.com/servicelayernetworking/slate/internal/queuemodel"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

func newChainController(t *testing.T, cfg ControllerConfig) (*Controller, *appgraph.App) {
	t.Helper()
	top := topology.TwoClusters(40 * time.Millisecond)
	app := appgraph.LinearChain(appgraph.ChainOptions{
		Services:        3,
		MeanServiceTime: 10 * time.Millisecond,
		Pool:            appgraph.ReplicaPool{Replicas: 2, Concurrency: 4},
		Clusters:        []topology.ClusterID{topology.West, topology.East},
	})
	c, err := NewController(top, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, app
}

func frontendStats(app *appgraph.App, class string, west, east float64, lat time.Duration) []telemetry.WindowStats {
	fe := string(app.FrontendService())
	return []telemetry.WindowStats{
		{Key: telemetry.MetricKey{Service: fe, Class: class, Cluster: string(topology.West)},
			RPS: west, Requests: uint64(west), MeanLatency: lat, Window: time.Second},
		{Key: telemetry.MetricKey{Service: fe, Class: class, Cluster: string(topology.East)},
			RPS: east, Requests: uint64(east), MeanLatency: lat, Window: time.Second},
	}
}

func TestControllerLearnsDemandAndPublishes(t *testing.T) {
	c, app := newChainController(t, ControllerConfig{DemandSmoothing: 1})
	tab, err := c.Tick(frontendStats(app, "default", 900, 100, 50*time.Millisecond), time.Second)
	if err != nil {
		t.Fatalf("Tick: %v", err)
	}
	if got := c.Demand()["default"][topology.West]; !almostEqual(got, 900) {
		t.Errorf("demand west = %v, want 900", got)
	}
	// Overload must produce at least one non-local rule.
	d := tab.Lookup("svc-1", "default", topology.West)
	if d.Weight(topology.East) <= 0 {
		t.Errorf("controller did not offload under overload: %v", d)
	}
}

func TestControllerNoDemandNoRules(t *testing.T) {
	c, _ := newChainController(t, ControllerConfig{})
	tab, err := c.Tick(nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 0 {
		t.Errorf("table has %d rules with no demand", tab.Len())
	}
}

// TestFoldDemand pins the demand estimator both controllers share
// (core.Controller and baseline.Controller call FoldDemand once per
// window): each case folds its windows in order and compares the whole
// estimate, so a key that should be absent must be absent.
func TestFoldDemand(t *testing.T) {
	_, app := newChainController(t, ControllerConfig{})
	fe := string(app.FrontendService())
	type obs struct {
		service, class string
		cluster        topology.ClusterID
		rps            float64
	}
	w, e := topology.West, topology.East
	for _, tc := range []struct {
		name    string
		alpha   float64
		windows [][]obs
		want    Demand
	}{
		{"first observation seeds", 0.5,
			[][]obs{{{fe, "default", w, 400}}},
			Demand{"default": {w: 400}}},
		{"ewma alpha 0.5", 0.5,
			[][]obs{{{fe, "default", w, 400}}, {{fe, "default", w, 600}}},
			Demand{"default": {w: 500}}},
		{"ewma alpha 1 tracks the last window", 1,
			[][]obs{{{fe, "default", w, 400}}, {{fe, "default", w, 600}}},
			Demand{"default": {w: 600}}},
		{"unseen key decays", 0.5,
			[][]obs{{{fe, "default", w, 400}, {fe, "default", e, 100}}, {{fe, "default", e, 100}}},
			Demand{"default": {w: 200, e: 100}}},
		{"decayed under 1e-6 is deleted", 0.5,
			[][]obs{{{fe, "default", w, 1.5e-6}, {fe, "default", e, 100}}, {{fe, "default", e, 100}}},
			Demand{"default": {e: 100}}},
		{"deleted key that reappears is seeded, not smoothed", 0.5,
			[][]obs{{{fe, "default", w, 1.5e-6}}, {}, {{fe, "default", w, 800}}},
			Demand{"default": {w: 800}}},
		{"unknown class and non-frontend service ignored", 0.5,
			[][]obs{{{fe, "no-such-class", w, 500}, {"svc-1", "default", w, 500}}},
			Demand{}},
		{"order of a window's stats does not matter", 0.5,
			[][]obs{{{fe, "default", e, 100}, {fe, "default", w, 400}}, {{fe, "default", w, 600}, {fe, "default", e, 300}}},
			Demand{"default": {w: 500, e: 200}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, reversed := range []bool{false, true} {
				got := Demand{}
				seen := map[forecast.Key]struct{}{{Class: "stale", Cluster: "scratch"}: {}}
				for _, win := range tc.windows {
					stats := make([]telemetry.WindowStats, len(win))
					for i, o := range win {
						stats[i] = telemetry.WindowStats{
							Key: telemetry.MetricKey{Service: o.service, Class: o.class, Cluster: string(o.cluster)},
							RPS: o.rps,
						}
					}
					if reversed {
						slices.Reverse(stats)
					}
					FoldDemand(got, app, stats, tc.alpha, seen)
				}
				if g, w := flatDemand(got), flatDemand(tc.want); !reflect.DeepEqual(g, w) {
					t.Errorf("reversed=%v: demand %v, want %v", reversed, g, w)
				}
			}
		})
	}
}

// flatDemand drops empty per-class maps, so two estimates compare by
// the keys they hold. The table's values are exact in binary.
func flatDemand(d Demand) map[forecast.Key]float64 {
	flat := map[forecast.Key]float64{}
	for class, per := range d {
		for cl, v := range per {
			flat[forecast.Key{Class: class, Cluster: string(cl)}] = v
		}
	}
	return flat
}

func TestControllerEWMASmoothing(t *testing.T) {
	c, app := newChainController(t, ControllerConfig{DemandSmoothing: 0.5})
	c.Tick(frontendStats(app, "default", 400, 100, 20*time.Millisecond), time.Second)
	c.Tick(frontendStats(app, "default", 600, 100, 20*time.Millisecond), time.Second)
	got := c.Demand()["default"][topology.West]
	if !almostEqual(got, 500) { // 400*0.5 + 600*0.5
		t.Errorf("smoothed demand = %v, want 500", got)
	}
}

// TestSetDemandCopies: the controller's estimate and the map it was
// seeded from are independent in both directions — a caller's later
// write does not reach the controller, and Tick's in-place fold does
// not reach the caller (who may be seeding a second controller).
func TestSetDemandCopies(t *testing.T) {
	c, app := newChainController(t, ControllerConfig{DemandSmoothing: 0.5})
	seed := Demand{"default": {topology.West: 400, topology.East: 100}}
	c.SetDemand(seed)
	seed["default"][topology.West] = 1
	if got := c.Demand()["default"][topology.West]; !almostEqual(got, 400) {
		t.Errorf("controller demand = %v after the caller wrote its own map, want 400", got)
	}
	c.Tick(frontendStats(app, "default", 600, 100, 20*time.Millisecond), time.Second)
	if got := c.Demand()["default"][topology.West]; !almostEqual(got, 500) { // 400*0.5 + 600*0.5
		t.Errorf("smoothed demand = %v, want 500", got)
	}
	if got := seed["default"][topology.West]; !almostEqual(got, 1) {
		t.Errorf("caller's map = %v after Tick, want it untouched at 1", got)
	}
}

func TestControllerDemandDecay(t *testing.T) {
	c, app := newChainController(t, ControllerConfig{DemandSmoothing: 0.5})
	c.Tick(frontendStats(app, "default", 400, 0, 20*time.Millisecond), time.Second)
	// Next window: west reports nothing.
	c.Tick(frontendStats(app, "default", 0, 100, 20*time.Millisecond)[1:], time.Second)
	got := c.Demand()["default"][topology.West]
	if !almostEqual(got, 200) {
		t.Errorf("decayed demand = %v, want 200", got)
	}
}

func TestControllerIgnoresUnknownClasses(t *testing.T) {
	c, app := newChainController(t, ControllerConfig{})
	c.Tick(frontendStats(app, "no-such-class", 500, 100, 20*time.Millisecond), time.Second)
	if len(c.Demand()) != 0 {
		t.Errorf("demand learned for unknown class: %v", c.Demand())
	}
}

func TestControllerMaxStepLimitsMovement(t *testing.T) {
	c, app := newChainController(t, ControllerConfig{DemandSmoothing: 1, MaxStep: 0.05})
	tab, err := c.Tick(frontendStats(app, "default", 900, 100, 50*time.Millisecond), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	d := tab.Lookup("svc-1", "default", topology.West)
	if w := d.Weight(topology.East); w > 0.05+1e-9 {
		t.Errorf("first step moved %v, exceeds MaxStep 0.05", w)
	}
	// Successive ticks keep approaching the optimum.
	tab2, _ := c.Tick(frontendStats(app, "default", 900, 100, 50*time.Millisecond), time.Second)
	d2 := tab2.Lookup("svc-1", "default", topology.West)
	if d2.Weight(topology.East) <= d.Weight(topology.East) {
		t.Errorf("second step did not advance: %v -> %v", d.Weight(topology.East), d2.Weight(topology.East))
	}
}

func TestControllerGuardRevertsOnRegression(t *testing.T) {
	c, app := newChainController(t, ControllerConfig{
		DemandSmoothing: 1,
		GuardRegression: true,
	})
	// Tick 1: moderate latency, causes a rule change (overload).
	_, err := c.Tick(frontendStats(app, "default", 900, 100, 50*time.Millisecond), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Table()
	// Tick 2: latency got dramatically worse after the change.
	tab2, err := c.Tick(frontendStats(app, "default", 900, 100, 500*time.Millisecond), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if c.Reverts() != 1 {
		t.Fatalf("Reverts = %d, want 1", c.Reverts())
	}
	if tab2 == before {
		t.Error("guard did not restore the previous table")
	}
	// Tick 3 is the hold period: no new optimization applied.
	held := c.Table()
	tab3, _ := c.Tick(frontendStats(app, "default", 900, 100, 100*time.Millisecond), time.Second)
	if tab3 != held {
		t.Error("hold period should keep the restored table")
	}
}

func TestControllerLearnProfilesFromTelemetry(t *testing.T) {
	c, app := newChainController(t, ControllerConfig{
		DemandSmoothing: 1,
		LearnProfiles:   true,
	})
	fe := string(app.FrontendService())
	// Feed windows whose svc-1 latencies come from a true M/M/8 pool
	// with per-server rate 50/s (capacity 400), half the declared
	// profile's 100/s (capacity 800).
	truth := queuemodel.MMc{Servers: 8, Mu: 50}
	for i := 0; i < 5; i++ {
		load := 100 + float64(i*50)
		stats := []telemetry.WindowStats{
			{Key: telemetry.MetricKey{Service: fe, Class: "default", Cluster: string(topology.West)},
				RPS: load, Requests: 100, MeanLatency: 2 * time.Millisecond},
			{Key: telemetry.MetricKey{Service: "svc-1", Class: "default", Cluster: string(topology.West)},
				RPS: load, Requests: 100,
				MeanLatency: truth.Sojourn(load)},
		}
		if _, err := c.Tick(stats, time.Second); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
	pp, ok := c.Profiles().Get("svc-1", topology.West)
	if !ok {
		t.Fatal("missing profile")
	}
	if cap := pp.Model.Capacity(); math.Abs(cap-400) > 40 {
		t.Errorf("fitted capacity = %v, want ~400 (true model)", cap)
	}
}

func TestSampleHistoryCapsLength(t *testing.T) {
	h := NewSampleHistory(4)
	for i := 0; i < 10; i++ {
		h.Observe([]telemetry.WindowStats{{
			Key:         telemetry.MetricKey{Service: "s", Class: "c", Cluster: "x"},
			RPS:         float64(i + 1),
			Requests:    10,
			MeanLatency: time.Millisecond,
		}})
	}
	key := PoolKey{Service: "s", Cluster: "x"}
	samples := h.Samples()[key]
	if len(samples) != 4 {
		t.Fatalf("history length = %d, want 4", len(samples))
	}
	if !almostEqual(samples[0].Lambda, 7) || !almostEqual(samples[3].Lambda, 10) {
		t.Errorf("history should keep the most recent samples: %+v", samples)
	}
}

func TestSampleHistoryMergesClasses(t *testing.T) {
	h := NewSampleHistory(0)
	h.Observe([]telemetry.WindowStats{
		{Key: telemetry.MetricKey{Service: "s", Class: "L", Cluster: "x"},
			RPS: 100, Requests: 100, MeanLatency: 10 * time.Millisecond},
		{Key: telemetry.MetricKey{Service: "s", Class: "H", Cluster: "x"},
			RPS: 50, Requests: 50, MeanLatency: 40 * time.Millisecond},
	})
	key := PoolKey{Service: "s", Cluster: "x"}
	samples := h.Samples()[key]
	if len(samples) != 1 {
		t.Fatalf("samples = %d, want 1 merged", len(samples))
	}
	if !almostEqual(samples[0].Lambda, 150) {
		t.Errorf("merged lambda = %v, want 150", samples[0].Lambda)
	}
	// Weighted mean latency: (100*10 + 50*40)/150 = 20ms.
	if samples[0].Latency != 20*time.Millisecond {
		t.Errorf("merged latency = %v, want 20ms", samples[0].Latency)
	}
}

func TestControllerRejectsInvalidApp(t *testing.T) {
	top := topology.TwoClusters(time.Millisecond)
	app := appgraph.LinearChain(appgraph.ChainOptions{})
	app.Classes = nil
	if _, err := NewController(top, app, ControllerConfig{}); err == nil {
		t.Fatal("invalid app accepted")
	}
}
