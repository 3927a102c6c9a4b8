// Package workload defines open-loop arrival processes for experiment
// scenarios: per traffic class and per cluster, a schedule of arrival
// phases (constant or Poisson rate, with optional bursts). Both the
// discrete-event simulator and the wall-clock emulation consume the
// same specs, so experiment definitions are runtime-agnostic.
package workload

import (
	"fmt"
	"time"

	"github.com/servicelayernetworking/slate/internal/sim"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// Process selects the arrival process shape.
type Process int

const (
	// Poisson arrivals: exponential inter-arrival times. This is the
	// M in the M/M/c models SLATE fits.
	Poisson Process = iota
	// Constant arrivals: deterministic inter-arrival times (a closed
	// pacing load generator).
	Constant
)

func (p Process) String() string {
	switch p {
	case Poisson:
		return "poisson"
	case Constant:
		return "constant"
	default:
		return fmt.Sprintf("Process(%d)", int(p))
	}
}

// Phase is one segment of an arrival schedule: a rate held for a
// duration. A zero-duration final phase extends to the end of the run.
type Phase struct {
	RPS      float64
	Duration time.Duration
}

// Spec is the arrival schedule for one (class, cluster) stream.
type Spec struct {
	Class   string
	Cluster topology.ClusterID
	Process Process
	Phases  []Phase
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.Class == "" {
		return fmt.Errorf("workload: spec has empty class")
	}
	if s.Cluster == "" {
		return fmt.Errorf("workload: spec has empty cluster")
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("workload: spec %s@%s has no phases", s.Class, s.Cluster)
	}
	for i, ph := range s.Phases {
		if ph.RPS < 0 {
			return fmt.Errorf("workload: spec %s@%s phase %d has negative rate", s.Class, s.Cluster, i)
		}
		if ph.Duration < 0 {
			return fmt.Errorf("workload: spec %s@%s phase %d has negative duration", s.Class, s.Cluster, i)
		}
		if ph.Duration == 0 && i != len(s.Phases)-1 {
			return fmt.Errorf("workload: spec %s@%s phase %d has zero duration but is not last", s.Class, s.Cluster, i)
		}
	}
	return nil
}

// RateAt returns the scheduled rate at time t since stream start.
// Beyond the last finite phase, the last phase's rate applies if its
// duration is zero (open-ended), otherwise zero (stream ended).
func (s Spec) RateAt(t time.Duration) float64 {
	var elapsed time.Duration
	for i, ph := range s.Phases {
		if ph.Duration == 0 && i == len(s.Phases)-1 {
			return ph.RPS
		}
		if t < elapsed+ph.Duration {
			return ph.RPS
		}
		elapsed += ph.Duration
	}
	return 0
}

// MeanRate returns the schedule's average rate over [from, to) by
// piecewise integration of the phase plan — the true offered load of an
// upcoming control window, which the clairvoyant policy plans with and
// regret is measured against. Beyond the last finite phase the
// open-ended rate (or zero, for ended streams) extends, mirroring
// RateAt. from ≥ to returns RateAt(from).
func (s Spec) MeanRate(from, to time.Duration) float64 {
	if to <= from {
		return s.RateAt(from)
	}
	var area float64 // rate × seconds
	t := from
	for t < to {
		rate := s.RateAt(t)
		nxt, ok := nextBoundary(s, t)
		if !ok || nxt > to {
			nxt = to
		}
		area += rate * (nxt - t).Seconds()
		t = nxt
	}
	return area / (to - from).Seconds()
}

// Steady returns a single-phase open-ended spec — the common case for
// the paper's experiments, which hold each load level constant.
func Steady(class string, cluster topology.ClusterID, rps float64) Spec {
	return Spec{
		Class:   class,
		Cluster: cluster,
		Process: Poisson,
		Phases:  []Phase{{RPS: rps}},
	}
}

// Burst returns a three-phase spec: baseline, burst, baseline
// (open-ended) — used to exercise reaction to sudden load changes.
func Burst(class string, cluster topology.ClusterID, baseRPS, burstRPS float64, warm, burst time.Duration) Spec {
	return Spec{
		Class:   class,
		Cluster: cluster,
		Process: Poisson,
		Phases: []Phase{
			{RPS: baseRPS, Duration: warm},
			{RPS: burstRPS, Duration: burst},
			{RPS: baseRPS},
		},
	}
}

// Arrivals generates the arrival times of a spec within [0, horizon)
// using the given random stream. It is deterministic for a fixed seed
// and is shared by the simulator (which replays the same arrivals under
// every policy for paired comparison) and tests.
func Arrivals(spec Spec, horizon time.Duration, rng *sim.RNG) []time.Duration {
	return AppendArrivals(nil, spec, horizon, rng)
}

// AppendArrivals appends the arrival times Arrivals would return to out
// and returns the extended slice, so a run can read every stream's
// arrivals into one buffer.
func AppendArrivals(out []time.Duration, spec Spec, horizon time.Duration, rng *sim.RNG) []time.Duration {
	t := time.Duration(0)
	for t < horizon {
		rate := spec.RateAt(t)
		if rate <= 0 {
			// Skip to the next phase boundary, if any.
			nxt, ok := nextBoundary(spec, t)
			if !ok || nxt >= horizon {
				break
			}
			t = nxt
			continue
		}
		var gap time.Duration
		switch spec.Process {
		case Constant:
			gap = time.Duration(float64(time.Second) / rate)
		default:
			gap = time.Duration(rng.Exp(1/rate) * float64(time.Second))
			if gap <= 0 {
				gap = time.Nanosecond
			}
		}
		t += gap
		if t < horizon {
			out = append(out, t)
		}
	}
	return out
}

func nextBoundary(spec Spec, t time.Duration) (time.Duration, bool) {
	var elapsed time.Duration
	for i, ph := range spec.Phases {
		if ph.Duration == 0 && i == len(spec.Phases)-1 {
			return 0, false
		}
		elapsed += ph.Duration
		if elapsed > t {
			return elapsed, true
		}
	}
	return 0, false
}
