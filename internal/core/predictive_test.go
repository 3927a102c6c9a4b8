package core

import (
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/forecast"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// TestControllerPredictivePlansAhead pins the planDemand contract on a
// rising workload: with a trend-aware forecaster the planned demand for
// the ramping stream must exceed the EWMA estimate (the controller
// provisions for where the demand is going, not where it was), while no
// key is ever planned below its estimate.
func TestControllerPredictivePlansAhead(t *testing.T) {
	c, app := newChainController(t, ControllerConfig{
		DemandSmoothing: 1,
		Forecast:        forecast.Config{Alpha: 0.9, Beta: 0.8},
	})
	for _, w := range []float64{300, 400, 500, 600} {
		if _, err := c.Tick(frontendStats(app, "default", w, 100, 20*time.Millisecond), time.Second); err != nil {
			t.Fatalf("tick at west=%v: %v", w, err)
		}
	}
	est := c.Demand()["default"][topology.West]
	if !almostEqual(est, 600) {
		t.Fatalf("estimate west = %v, want 600 (smoothing 1)", est)
	}
	planned := c.planDemand()
	if got := planned["default"][topology.West]; got <= est {
		t.Errorf("planned west = %v, want > estimate %v on a ramp", got, est)
	}
	for class, per := range c.Demand() {
		for cl, estimate := range per {
			if got := planned[class][cl]; got < estimate-1e-9 {
				t.Errorf("planned %s/%s = %v below estimate %v", class, cl, got, estimate)
			}
		}
	}
}

// TestControllerPredictiveNeverStarves pins the max-merge: on a falling
// workload the forecast dips below the estimate and must be ignored —
// planned demand equals the (still-high) EWMA estimate, so a wrong
// forecast can only over-provision, never strand live traffic.
func TestControllerPredictiveNeverStarves(t *testing.T) {
	c, app := newChainController(t, ControllerConfig{
		DemandSmoothing: 1,
		Forecast:        forecast.Config{Alpha: 0.9, Beta: 0.8},
	})
	for _, w := range []float64{600, 500, 400, 300} {
		if _, err := c.Tick(frontendStats(app, "default", w, 100, 20*time.Millisecond), time.Second); err != nil {
			t.Fatalf("tick at west=%v: %v", w, err)
		}
	}
	est := c.Demand()["default"][topology.West]
	if got := c.planDemand()["default"][topology.West]; !almostEqual(got, est) {
		t.Errorf("planned west = %v, want estimate %v (downward forecasts ignored)", got, est)
	}
}

// TestControllerPredictiveDefaultsAndUnknownClasses checks that the zero
// Forecast config builds no forecaster, and that with forecast.Defaults()
// stats for classes the app does not define never leak into planned
// demand.
func TestControllerPredictiveDefaultsAndUnknownClasses(t *testing.T) {
	if off, _ := newChainController(t, ControllerConfig{}); off.fc != nil {
		t.Fatal("zero Forecast config built a forecaster")
	}
	c, app := newChainController(t, ControllerConfig{DemandSmoothing: 1, Forecast: forecast.Defaults()})
	stats := frontendStats(app, "default", 400, 100, 20*time.Millisecond)
	stats = append(stats, frontendStats(app, "no-such-class", 900, 900, 20*time.Millisecond)...)
	for i := 0; i < 3; i++ {
		if _, err := c.Tick(stats, time.Second); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
	planned := c.planDemand()
	if _, ok := planned["no-such-class"]; ok {
		t.Errorf("unknown class leaked into planned demand: %v", planned)
	}
	if got := planned["default"][topology.West]; got < 400-1e-9 {
		t.Errorf("planned west = %v, want ≥ 400", got)
	}
}
