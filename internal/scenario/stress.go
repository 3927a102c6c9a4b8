// Stress scenario generators for the robust/predictive evaluation: the
// demand-side counterpart of Generate's planet-scale dynamics. Each
// constructor returns a small, fully deterministic simrun.Scenario whose
// workload violates the "demand is what I measured last window"
// assumption in a characteristic way — a flash crowd between control
// ticks, a diurnal swing a forecaster can learn, an adversarial random
// walk bouncing across the uncertainty box, and a correlated
// multi-cluster surge. The regret experiment runs reactive, robust,
// predictive and clairvoyant controllers over these and reports
// worst-case and mean latency regret (see internal/experiments).
package scenario

import (
	"fmt"
	"math"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/sim"
	"github.com/servicelayernetworking/slate/internal/simrun"
	"github.com/servicelayernetworking/slate/internal/topology"
	"github.com/servicelayernetworking/slate/internal/workload"
)

// StressControlPeriod is the control/telemetry window every stress
// scenario uses; walk and diurnal schedules step on its boundaries so a
// demand change always lands exactly between two controller ticks (the
// worst case for a reactive controller).
const StressControlPeriod = 2 * time.Second

// stressChainApp is the paper's 3-service chain sized so one cluster's
// pool saturates at 800 standard RPS (760 at the utilization cap) —
// the stress baselines sit deliberately close to that knee.
func stressChainApp(clusters ...topology.ClusterID) *appgraph.App {
	return appgraph.LinearChain(appgraph.ChainOptions{
		Services:        3,
		MeanServiceTime: 10 * time.Millisecond,
		Pool:            appgraph.ReplicaPool{Replicas: 2, Concurrency: 4},
		Clusters:        clusters,
	})
}

// FlashCrowd is the between-ticks surge: west runs at 700 RPS — close
// enough to the 760-RPS knee that a reactive controller keeps most of
// it local — then spikes to 950 RPS at t=20s for 6 s. The spike begins
// exactly on a control boundary, so a reactive controller serves its
// first spiked window with a table built for 700.
func FlashCrowd(seed int64) simrun.Scenario {
	top := topology.TwoClusters(40 * time.Millisecond)
	return simrun.Scenario{
		Name: "flash-crowd",
		Top:  top,
		App:  stressChainApp(topology.West, topology.East),
		Workload: []workload.Spec{
			workload.Burst("default", topology.West, 700, 950, 20*time.Second, 6*time.Second),
			workload.Steady("default", topology.East, 100),
		},
		Duration:      40 * time.Second,
		Warmup:        4 * time.Second,
		ControlPeriod: StressControlPeriod,
		Seed:          seed,
	}
}

// DiurnalSwing oscillates west demand sinusoidally around 500 RPS with
// ±300 amplitude and a 24 s period, sampled every control window — a
// 12-step season a Holt-Winters forecaster (SeasonLength 12) can learn
// within two cycles. East mirrors the swing in antiphase, so total
// system load is constant and only the *placement* must track the wave.
func DiurnalSwing(seed int64) simrun.Scenario {
	const (
		mean   = 500.0
		amp    = 300.0
		period = 24 * time.Second
		dur    = 96 * time.Second // four full cycles
	)
	var west, east []workload.Phase
	for t := time.Duration(0); t < dur; t += StressControlPeriod {
		phase := 2 * math.Pi * float64(t) / float64(period)
		west = append(west, workload.Phase{RPS: mean + amp*math.Sin(phase), Duration: StressControlPeriod})
		east = append(east, workload.Phase{RPS: mean - amp*math.Sin(phase), Duration: StressControlPeriod})
	}
	west[len(west)-1].Duration = 0 // open-ended tails
	east[len(east)-1].Duration = 0
	top := topology.TwoClusters(40 * time.Millisecond)
	return simrun.Scenario{
		Name: "diurnal",
		Top:  top,
		App:  stressChainApp(topology.West, topology.East),
		Workload: []workload.Spec{
			{Class: "default", Cluster: topology.West, Process: workload.Poisson, Phases: west},
			{Class: "default", Cluster: topology.East, Process: workload.Poisson, Phases: east},
		},
		Duration: dur,
		// Two full cycles of warmup: a Holt-Winters forecaster with
		// SeasonLength 12 needs one season to initialize and one to
		// settle, so post-warmup windows score the *trained* predictor.
		Warmup:        48 * time.Second,
		ControlPeriod: StressControlPeriod,
		Seed:          seed,
	}
}

// WalkAmplitude returns the largest relative swing a margin-m robust
// controller provably absorbs against an adversarial walk: the
// controller's demand estimate is a convex combination of past rates,
// so it can sit at the low corner base·(1−a) while the next window
// jumps to base·(1+a); coverage needs (1−a)(1+m) ≥ 1+a, i.e.
// a ≤ m/(2+m) (≈11.1% for the 25% margin the regret experiment uses).
func WalkAmplitude(margin float64) float64 {
	return margin / (2 + margin)
}

// AdversarialWalk bounces west demand between the corners of the
// widest band a margin-wide uncertainty set covers (see WalkAmplitude):
// every control window a seeded coin flip sends the rate to
// base·(1±a). A reactive controller is always one window behind the
// flip; a robust one pads every estimate enough to cover the opposite
// corner. The walk is a pure function of the seed
// (sim.RNG.DeriveNamed per step), so paired runs under different
// policies face the identical adversary.
func AdversarialWalk(seed int64, margin float64) simrun.Scenario {
	// The base puts the walk's high corner (base·(1+a) ≈ 755 RPS for the
	// 25% margin) just under the 760-RPS utilization cap: a stale table
	// built for the low corner meets it at ~94% local utilization, deep
	// in the convex tail of the queueing curve.
	const (
		base = 680.0
		dur  = 60 * time.Second
	)
	if margin <= 0 {
		margin = 0.25
	}
	amp := WalkAmplitude(margin)
	root := sim.NewRNG(seed)
	var west []workload.Phase
	for t := time.Duration(0); t < dur; t += StressControlPeriod {
		step := root.DeriveNamed(fmt.Sprintf("walk/west/%d", int(t/StressControlPeriod)))
		rps := base * (1 - amp)
		if step.Float64() < 0.5 {
			rps = base * (1 + amp)
		}
		west = append(west, workload.Phase{RPS: rps, Duration: StressControlPeriod})
	}
	west[len(west)-1].Duration = 0
	top := topology.TwoClusters(40 * time.Millisecond)
	return simrun.Scenario{
		Name: "adversarial-walk",
		Top:  top,
		App:  stressChainApp(topology.West, topology.East),
		Workload: []workload.Spec{
			{Class: "default", Cluster: topology.West, Process: workload.Poisson, Phases: west},
			workload.Steady("default", topology.East, 100),
		},
		Duration:      dur,
		Warmup:        4 * time.Second,
		ControlPeriod: StressControlPeriod,
		Seed:          seed,
	}
}

// CorrelatedSurge lifts demand in two GCP clusters (Oregon and Iowa)
// simultaneously from 600 to 900 RPS for 6 s starting at t=20s — the
// correlated regional event the box covers, since its margin raises a
// class in every arrival cluster at once. The 600-RPS base sits under
// the local knee, so a reactive table keeps it local and has no
// headroom for the surge; the 25% margin provisions for 750 and
// pre-spills. Utah and South Carolina idle at 100 RPS and are the
// natural spill targets.
func CorrelatedSurge(seed int64) simrun.Scenario {
	top := topology.GCPTopology()
	clusters := top.ClusterIDs()
	return simrun.Scenario{
		Name: "correlated-surge",
		Top:  top,
		App:  stressChainApp(clusters...),
		Workload: []workload.Spec{
			workload.Burst("default", topology.OR, 600, 900, 20*time.Second, 6*time.Second),
			workload.Burst("default", topology.IOW, 600, 900, 20*time.Second, 6*time.Second),
			workload.Steady("default", topology.UT, 100),
			workload.Steady("default", topology.SC, 100),
		},
		Duration:      40 * time.Second,
		Warmup:        4 * time.Second,
		ControlPeriod: StressControlPeriod,
		Seed:          seed,
	}
}

// StressScenarios returns the full stress suite keyed by name, all
// driven by the one seed (margin parameterizes the walk's box corners).
func StressScenarios(seed int64, margin float64) []simrun.Scenario {
	return []simrun.Scenario{
		FlashCrowd(seed),
		AdversarialWalk(seed, margin),
		DiurnalSwing(seed),
		CorrelatedSurge(seed),
	}
}
