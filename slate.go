// Package slate is the public API of the SLATE reproduction — Service
// Layer Traffic Engineering for multi-cluster microservice request
// routing (Lim, Prerepa, Godfrey, Mittal — HotNets '24).
//
// SLATE replaces per-hop load balancing with a global optimization:
// a Global Controller collects per-(service, class, cluster) telemetry,
// fits load-to-latency profiles, and solves a flow LP over the
// application call tree to decide, for every traffic class at every
// hop, what fraction of requests stays local and what fraction routes
// to each remote cluster.
//
// Three ways to use the library:
//
//   - One-shot optimization: build a Problem and call Optimize to get
//     a routing Table plus predicted latency/cost (see
//     examples/quickstart).
//
//   - Simulation: describe a Scenario and Run it on the deterministic
//     discrete-event engine under any Policy — SLATE, the Waterfall
//     baseline of Google Traffic Director / Meta ServiceRouter,
//     locality failover, or a static table (see examples/gcp-topology,
//     examples/traffic-classes).
//
//   - Emulation: StartMesh spins up the full architecture on loopback
//     HTTP — app servers, SLATE-proxy sidecars, cluster controllers,
//     global controller — with emulated inter-cluster latency (see
//     examples/anomaly-detection).
//
// The package is a façade of type aliases and constructors over the
// internal packages, so the examples and downstream users never import
// internal paths.
package slate

import (
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/baseline"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/emul"
	"github.com/servicelayernetworking/slate/internal/experiments"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/simrun"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
	"github.com/servicelayernetworking/slate/internal/workload"
)

// Topology modeling.
type (
	// Topology is the set of clusters with inter-cluster RTTs and
	// egress prices.
	Topology = topology.Topology
	// ClusterID names a cluster.
	ClusterID = topology.ClusterID
)

// GCPTopology returns the paper's four-cluster GCP topology (OR, UT,
// IOW, SC with measured inter-region RTTs).
func GCPTopology() *Topology { return topology.GCPTopology() }

// TwoClusters returns a west/east cluster pair with the given RTT.
func TwoClusters(rtt time.Duration) *Topology { return topology.TwoClusters(rtt) }

// Paper cluster IDs.
const (
	West = topology.West
	East = topology.East
	OR   = topology.OR
	UT   = topology.UT
	IOW  = topology.IOW
	SC   = topology.SC
)

// Application modeling.
type (
	// App is a microservice application: services, placements, classes.
	App = appgraph.App
	// Service is one microservice and its per-cluster replica pools.
	Service = appgraph.Service
	// ServiceID names a service.
	ServiceID = appgraph.ServiceID
	// ReplicaPool sizes a service's deployment in one cluster.
	ReplicaPool = appgraph.ReplicaPool
	// Class is a traffic class with its call tree.
	Class = appgraph.Class
	// CallNode is one endpoint call in a class's call tree.
	CallNode = appgraph.CallNode
	// Work is the resource demand of one call.
	Work = appgraph.Work
	// ChainOptions configures the linear-chain preset.
	ChainOptions = appgraph.ChainOptions
	// AnomalyOptions configures the anomaly-detection preset.
	AnomalyOptions = appgraph.AnomalyOptions
	// TwoClassOptions configures the two-class preset.
	TwoClassOptions = appgraph.TwoClassOptions
	// FanoutOptions configures the scatter/gather preset.
	FanoutOptions = appgraph.FanoutOptions
)

// Service-time distributions.
const (
	DistExponential   = appgraph.DistExponential
	DistDeterministic = appgraph.DistDeterministic
)

// Well-known service IDs of the application presets.
const (
	AnomalyFR        = appgraph.AnomalyFR
	AnomalyMP        = appgraph.AnomalyMP
	AnomalyDB        = appgraph.AnomalyDB
	TwoClassFrontend = appgraph.TwoClassFrontend
	TwoClassWorker   = appgraph.TwoClassWorker
)

// Application presets (the paper's evaluation workloads).
var (
	// LinearChain is the paper's 3-service microbenchmark (§4).
	LinearChain = appgraph.LinearChain
	// AnomalyDetection is the FR→MP→DB application of §4.3.
	AnomalyDetection = appgraph.AnomalyDetection
	// TwoClassApp is the L/H two-class application of §4.4.
	TwoClassApp = appgraph.TwoClassApp
	// FanoutApp is a parallel scatter/gather application.
	FanoutApp = appgraph.FanoutApp
	// UniformPlacement places the same pool in every listed cluster.
	UniformPlacement = appgraph.Uniform
	// ClassFromTrace learns a traffic class's call tree (structure,
	// per-node work, fan-out counts, parallelism) from one distributed
	// trace's spans.
	ClassFromTrace = appgraph.FromTrace
	// ClassFromTraces learns a class from several same-shape traces,
	// averaging work estimates.
	ClassFromTraces = appgraph.FromTraces
)

// Optimization (the paper's core contribution).
type (
	// Problem is one global routing optimization instance.
	Problem = core.Problem
	// OptimizerConfig sets objective weights and linearization.
	OptimizerConfig = core.Config
	// Demand is per-class per-cluster offered load (RPS).
	Demand = core.Demand
	// Profiles are per-pool load-to-latency models.
	Profiles = core.Profiles
	// Plan is an optimization result: rules plus predictions.
	Plan = core.Plan
	// PoolKey identifies a (service, cluster) replica pool.
	PoolKey = core.PoolKey
	// Controller is the adaptive global controller.
	Controller = core.Controller
	// ControllerConfig tunes the control loop.
	ControllerConfig = core.ControllerConfig
	// OptimizerStats counts formulation builds and warm vs cold solves.
	OptimizerStats = core.OptimizerStats
)

// DefaultProfiles derives latency profiles from the app model, as if
// profiled offline.
var DefaultProfiles = core.DefaultProfiles

// NewController builds an adaptive global controller.
var NewController = core.NewController

// Routing rules.
type (
	// Table is a versioned set of routing rules.
	Table = routing.Table
	// RuleKey addresses one rule.
	RuleKey = routing.Key
	// Distribution is a weighted choice over destination clusters.
	Distribution = routing.Distribution
)

// AnyClass is the wildcard rule class.
const AnyClass = routing.AnyClass

// Baselines (paper §4).
type (
	// Capacities holds Waterfall's static per-pool thresholds.
	Capacities = baseline.Capacities
	// WaterfallController recomputes Waterfall tables from telemetry.
	WaterfallController = baseline.Controller
)

var (
	// Waterfall computes the Traffic Director / ServiceRouter style
	// capacity-spillover table for a demand.
	Waterfall = baseline.Waterfall
	// DefaultCapacities sizes Waterfall thresholds from the app model.
	DefaultCapacities = baseline.DefaultCapacities
	// LocalityFailover is today's service-mesh failover policy.
	LocalityFailover = baseline.LocalityFailover
	// LocalOnly routes everything to the local cluster.
	LocalOnly = baseline.LocalOnly
	// NewWaterfallController builds the adaptive Waterfall baseline.
	NewWaterfallController = baseline.NewController
)

// Simulation.
type (
	// Scenario describes one simulated experiment.
	Scenario = simrun.Scenario
	// Result is a simulation outcome.
	Result = simrun.Result
	// ClassResult is one class's latency summary.
	ClassResult = simrun.ClassResult
	// Policy produces routing tables during a run.
	Policy = simrun.Policy
	// WorkloadSpec is one arrival stream.
	WorkloadSpec = workload.Spec
	// WorkloadPhase is one segment of an arrival schedule.
	WorkloadPhase = workload.Phase
)

var (
	// Run executes a scenario under a policy on the DES.
	Run = simrun.Run
	// SLATEPolicy adapts a Controller for simulation.
	SLATEPolicy = simrun.SLATE
	// WaterfallPolicy adapts a WaterfallController for simulation.
	WaterfallPolicy = simrun.Waterfall
	// StaticPolicy wraps a fixed table.
	StaticPolicy = simrun.Static
	// SteadyLoad is a constant-rate Poisson stream.
	SteadyLoad = workload.Steady
	// BurstLoad is a base/burst/base stream.
	BurstLoad = workload.Burst
)

// Telemetry.
type (
	// CDFPoint is one point of an empirical latency CDF.
	CDFPoint = telemetry.CDFPoint
	// WindowStats is one telemetry aggregation window.
	WindowStats = telemetry.WindowStats
	// Span is one service invocation within a distributed trace.
	Span = telemetry.Span
	// TraceID correlates the spans of one end-to-end request.
	TraceID = telemetry.TraceID
	// SpanID identifies one span within a trace.
	SpanID = telemetry.SpanID
)

// Emulation (loopback deployment of the full architecture).
type (
	// Mesh is a running emulated multi-cluster deployment.
	Mesh = emul.Mesh
	// MeshOptions configures StartMesh.
	MeshOptions = emul.Options
	// LoadResult summarizes a driven workload.
	LoadResult = emul.LoadResult
)

// StartMesh boots app servers, sidecars and controllers on loopback.
var StartMesh = emul.Start

// Experiments (paper figure regeneration).
type (
	// Figure is one experiment's printable output.
	Figure = experiments.Figure
	// ExperimentOptions tunes experiment runs.
	ExperimentOptions = experiments.Options
)

var (
	// Experiments returns every figure generator keyed by ID.
	Experiments = experiments.All
	// RenderFigure writes a figure as aligned text.
	RenderFigure = experiments.Render
)
