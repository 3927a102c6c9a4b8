package experiments

import (
	"time"

	"github.com/servicelayernetworking/slate/internal/baseline"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/simrun"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// AutoscalerInteraction studies the paper's §5 open question —
// "request routing decisions in the service layer can affect the
// autoscaler's behavior" — on the burst scenario. Three systems face
// the same west 300→850→300 RPS burst:
//
//   - autoscaler-only: local routing; an HPA-style scaler (15 s period,
//     30 s reaction delay) grows the west pools;
//   - slate-only: adaptive SLATE routing, fixed capacity;
//   - combined: both.
//
// Measured effects: (1) routing absorbs the burst ~an order of
// magnitude faster than scaling; (2) with SLATE active, cross-cluster
// offloading lowers west utilization, so the autoscaler provisions
// fewer west replicas — request routing visibly suppresses scaling,
// which is exactly the interaction the paper flags for co-design.
func AutoscalerInteraction(opt Options) (*Figure, error) {
	opt = opt.defaults()
	const hold = 40 * time.Second
	fixed := burstScenario("autoscale", hold, 100*time.Second, opt.Seed)
	scaled := fixed
	scaled.Autoscaler = &simrun.AutoscalerConfig{
		Period:            15 * time.Second,
		TargetUtilization: 0.7,
		ReactionDelay:     30 * time.Second,
		MaxReplicas:       12,
	}
	// SLATE's latency profiles assume fixed capacity; the autoscaler
	// changing pool sizes under it is precisely the modeling gap §5
	// describes, so the combined leg lets the controller re-fit its
	// profiles as capacity moves.
	legs := []leg{
		{"autoscaler-only", scaled, staticLeg("local", baseline.LocalOnly())},
		{"slate-only", fixed, slateLeg(core.ControllerConfig{DemandSmoothing: 0.7}, nil)},
		{"combined", scaled, slateLeg(core.ControllerConfig{DemandSmoothing: 0.7, LearnProfiles: true}, nil)},
	}
	results, err := runLegs(legs)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:    "autoscaler",
		Title: "Request routing × autoscaling on a burst (west 300→850→300 RPS)",
		Notes: []string{
			"burst t=20..60s; HPA: 15s period, 70% target, 30s reaction, downscale stabilization 30s",
			"x = time (s); y = per-window mean latency (ms)",
		},
		Summary: map[string]float64{},
	}
	addBurstTimelines(fig, legs, results, hold)
	for i, l := range legs {
		if results[i].FinalReplicas == nil {
			continue
		}
		var westReplicas int
		for key, r := range results[i].FinalReplicas {
			if key.Cluster == topology.West && key.Service != "gateway" {
				westReplicas += r
			}
		}
		fig.Summary[l.name+"_final_west_replicas"] = float64(westReplicas)
	}
	if a, c := fig.Summary["autoscaler-only_final_west_replicas"], fig.Summary["combined_final_west_replicas"]; a > 0 && c > 0 {
		fig.Summary["scaling_suppression_ratio"] = a / c
	}
	return fig, nil
}
