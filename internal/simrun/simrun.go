// Package simrun executes SLATE experiment scenarios on the
// discrete-event simulation kernel: microservice replica pools with
// FIFO multi-server queues, call-tree execution with per-class service
// demands, inter-cluster network delays, egress accounting, periodic
// telemetry collection, and a pluggable routing policy driven on
// virtual time.
//
// This is the substitute for the paper's multi-node Kubernetes testbed
// (see DESIGN.md): the quantities the experiments measure — queueing
// latency as a function of load, added network RTT, and cross-cluster
// bytes — are exactly the quantities the simulator models, and virtual
// time makes parameter sweeps deterministic and fast on a single core.
//
// This file holds the scenario and result types and the model's parts
// (replica pools); the executor is in parallel.go, the scenario compiled
// to the dense ids it runs on in compile.go.
package simrun

import (
	"fmt"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/fault"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/sim"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
	"github.com/servicelayernetworking/slate/internal/workload"
)

// Policy produces routing tables for a run. Implementations wrap
// core.Controller (SLATE), baseline.Controller (Waterfall), or a static
// table.
type Policy interface {
	// Name labels results.
	Name() string
	// Init returns the table to use from time zero.
	Init() (*routing.Table, error)
	// Tick ingests one telemetry window and returns the table to use
	// until the next tick. Errors are recorded but not fatal: the
	// previous table keeps serving (as a real control plane would).
	Tick(stats []telemetry.WindowStats, window time.Duration) (*routing.Table, error)
}

// Scenario describes one experiment run.
type Scenario struct {
	Name string
	Top  *topology.Topology
	App  *appgraph.App
	// Workload lists the arrival streams (one per class/cluster).
	Workload []workload.Spec
	// Duration is the virtual run length; Warmup excludes the initial
	// transient from results.
	Duration time.Duration
	Warmup   time.Duration
	// ControlPeriod is the telemetry window / policy tick interval.
	// Zero disables ticking (static policy only).
	ControlPeriod time.Duration
	// Seed makes the run reproducible. Runs with the same seed replay
	// identical arrival processes and service-time draws under
	// different policies (paired comparison).
	Seed int64
	// Autoscaler, when non-nil, enables HPA-style horizontal scaling of
	// every replica pool (paper §5 "interaction between request routing
	// and autoscaler").
	Autoscaler *AutoscalerConfig
	// Faults, when non-nil, injects control-plane failures on virtual
	// time: during a global-controller outage window the policy does not
	// tick (rules go stale); during a cluster-controller outage that
	// cluster receives no rule refreshes; a partition window fails every
	// data-plane call crossing the cut cluster pair.
	Faults *fault.Schedule
	// RuleTTL is the proxies' rule-staleness bound: once a cluster has
	// gone longer than RuleTTL without a rule refresh, its outbound calls
	// degrade to local-biased routing until the control plane answers
	// again (the hardened dataplane). Zero means rules never expire —
	// the unhardened baseline keeps following stale remote-routing rules
	// through an outage.
	RuleTTL time.Duration
	// SpanSink, when non-nil, receives one trace span per post-warmup
	// call-tree node, with deterministic trace/span IDs so the same seed
	// dumps the same trace file (obs.SpanWriter satisfies this). Write
	// errors abort span export for the rest of the run but not the run
	// itself.
	SpanSink SpanSink
	// Dynamics lists scheduled replica-pool changes on virtual time —
	// pod churn, rolling restarts, hotspot capacity migration. Each event
	// resizes one pool at its timestamp (generated TraDE-style scenarios
	// use these heavily; see internal/scenario).
	Dynamics []PoolEvent
}

// SpanSink receives exported trace spans (see obs.SpanWriter).
type SpanSink interface {
	WriteSpan(telemetry.Span) error
}

// PoolEvent is one scheduled replica-pool change: at virtual time At,
// the (Service, Cluster) pool is resized to Replicas replicas (each
// keeping its configured per-replica concurrency). Running jobs finish;
// queued jobs start into new slots immediately on growth.
type PoolEvent struct {
	At       time.Duration
	Service  appgraph.ServiceID
	Cluster  topology.ClusterID
	Replicas int
}

// Validate checks the scenario.
func (s *Scenario) Validate() error {
	if s.Top == nil || s.App == nil {
		return fmt.Errorf("simrun: scenario missing topology or app")
	}
	if err := s.App.Validate(s.Top); err != nil {
		return fmt.Errorf("simrun: %w", err)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("simrun: non-positive duration")
	}
	if s.Warmup < 0 || s.Warmup >= s.Duration {
		return fmt.Errorf("simrun: warmup %v outside [0, duration)", s.Warmup)
	}
	if len(s.Workload) == 0 {
		return fmt.Errorf("simrun: no workload streams")
	}
	for _, spec := range s.Workload {
		if err := spec.Validate(); err != nil {
			return err
		}
		if s.App.Class(spec.Class) == nil {
			return fmt.Errorf("simrun: workload references unknown class %q", spec.Class)
		}
		if !s.Top.Has(spec.Cluster) {
			return fmt.Errorf("simrun: workload references unknown cluster %q", spec.Cluster)
		}
	}
	for _, ev := range s.Dynamics {
		if ev.At < 0 || ev.At > s.Duration {
			return fmt.Errorf("simrun: dynamics event at %v outside [0, duration]", ev.At)
		}
		if ev.Replicas < 1 {
			return fmt.Errorf("simrun: dynamics event for %s@%s wants %d replicas, need >= 1",
				ev.Service, ev.Cluster, ev.Replicas)
		}
		svc := s.App.Service(ev.Service)
		if svc == nil {
			return fmt.Errorf("simrun: dynamics event references unknown service %q", ev.Service)
		}
		if !svc.PlacedIn(ev.Cluster) {
			return fmt.Errorf("simrun: dynamics event for %s@%s, but the service is not placed there",
				ev.Service, ev.Cluster)
		}
	}
	return validateAutoscaler(s.Autoscaler)
}

// ClassResult summarizes completed requests of one class.
type ClassResult struct {
	Class     string
	Completed uint64
	Mean      time.Duration
	P50       time.Duration
	P99       time.Duration
	// Samples holds every post-warmup end-to-end latency, for CDFs.
	Samples []time.Duration
}

// Result is the outcome of one run.
type Result struct {
	Scenario string
	Policy   string
	// PerClass maps class name to its latency summary.
	PerClass map[string]*ClassResult
	// Mean/P50/P99 aggregate across classes.
	Mean, P50, P99 time.Duration
	Completed      uint64
	Generated      uint64
	// EgressBytes / EgressCost accumulate post-warmup cross-cluster
	// traffic and its dollar cost.
	EgressBytes int64
	EgressCost  float64
	// MeasuredWindow is the post-warmup interval length.
	MeasuredWindow time.Duration
	// PolicyErrors counts Tick errors (e.g. transient infeasibility).
	PolicyErrors int
	// RemoteFraction is the fraction of calls routed cross-cluster.
	RemoteFraction float64
	// LocalServedRPS reports, per cluster, the post-warmup rate of root
	// requests whose first-hop call stayed in the arrival cluster —
	// the empirical "routing threshold" of paper Fig. 4.
	LocalServedRPS map[topology.ClusterID]float64
	// Timeline records one point per control window (requires
	// ControlPeriod > 0): the end-to-end mean latency and completion
	// rate observed in that window — how the system behaves over time,
	// e.g. through a load burst.
	Timeline []TimelinePoint
	// Failed counts post-warmup requests that failed (a hop crossed a
	// partitioned cluster pair); Availability = Completed / (Completed +
	// Failed), 1 when nothing failed.
	Failed       uint64
	Availability float64
	// MissedTicks counts control rounds skipped because the global
	// controller was down; DegradedCalls counts routing decisions that
	// fell back to local-biased routing because rules exceeded RuleTTL.
	MissedTicks   int
	DegradedCalls uint64
	// ScaleEvents lists effective autoscaler actions (when enabled).
	ScaleEvents []ScaleEvent
	// FinalReplicas reports each pool's replica count at the end of the
	// run (when the autoscaler is enabled).
	FinalReplicas map[core.PoolKey]int
	// Parallel reports how the engine executed the run. It is never nil:
	// Run reports Shards: 1.
	Parallel *ParallelStats
}

// TimelinePoint is one control-window observation.
type TimelinePoint struct {
	At   time.Duration // window end, virtual time since start
	Mean time.Duration // mean end-to-end latency in the window
	RPS  float64       // completed requests per second in the window
}

// CDF returns the aggregate end-to-end latency CDF.
func (r *Result) CDF() []telemetry.CDFPoint {
	var all []time.Duration
	for _, cr := range r.PerClass {
		all = append(all, cr.Samples...) //slate:nolint detorder -- CDFOf sorts the samples, so collection order cannot reach the output
	}
	return telemetry.CDFOf(all)
}

// pool is one (service, cluster) replica pool: a FIFO queue served by
// `servers` parallel workers. Workers are held only for a request's own
// busy time; time spent waiting on child calls does not occupy a worker
// (async server model, matching the M/M/c abstraction the controller
// fits). The queue links the owning shard's call frames by index, head
// to tail, -1 when empty (see shardRun.serve, admit and resize).
type pool struct {
	key        core.PoolKey
	servers    int
	conc       int // servers per replica
	busy       int
	head, tail int32
	rng        *sim.RNG
	// busySeconds accumulates server busy time for the autoscaler's
	// utilization measurement; the autoscaler resets it each period.
	busySeconds float64
}

// drawServiceTime samples a service time for a call node.
//
//slate:hot
func drawServiceTime(rng *sim.RNG, w appgraph.Work) time.Duration {
	if w.MeanServiceTime <= 0 {
		return 0
	}
	switch w.Dist {
	case appgraph.DistDeterministic:
		return w.MeanServiceTime
	case appgraph.DistPareto:
		return time.Duration(rng.Pareto(w.MeanServiceTime.Seconds(), w.TailAlpha) * float64(time.Second))
	default:
		return time.Duration(rng.Exp(w.MeanServiceTime.Seconds()) * float64(time.Second))
	}
}

// timelineFrom summarizes one control window's end-to-end stats into a
// timeline point. ok is false when the window saw no completed requests.
func timelineFrom(at time.Duration, stats []telemetry.WindowStats, window time.Duration) (TimelinePoint, bool) {
	var latSum float64
	var n uint64
	for _, ws := range stats {
		if ws.Key.Service != telemetry.E2EService {
			continue
		}
		latSum += ws.MeanLatency.Seconds() * float64(ws.Requests)
		n += ws.Requests
	}
	if n == 0 {
		return TimelinePoint{}, false
	}
	return TimelinePoint{
		At:   at,
		Mean: time.Duration(latSum / float64(n) * float64(time.Second)),
		RPS:  float64(n) / window.Seconds(),
	}, true
}
