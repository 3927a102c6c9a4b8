// Planet-scale scenario generation: Generate materializes a synthetic
// deployment in the regime the paper targets — hundreds of clusters,
// ~1000 services, heavy-tailed service times, partial replication with
// locality-biased routing, and TraDE-style dynamics (pod churn, retry
// storms, hotspot migration) — sized far beyond the hand-written
// presets, for exercising the parallel simulator and the optimizer at
// scale.
//
// Everything is a pure function of GenSpec.Seed: every random choice is
// drawn from a stream derived by *name* (sim.RNG.DeriveNamed), never
// from shared stream state or map iteration order, so the same spec
// generates bit-identical scenarios on every run, platform, and
// GOMAXPROCS. The golden-fixture test pins a 100-cluster digest.
package scenario

import (
	"fmt"
	"math"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/sim"
	"github.com/servicelayernetworking/slate/internal/simrun"
	"github.com/servicelayernetworking/slate/internal/topology"
	"github.com/servicelayernetworking/slate/internal/workload"
)

// Link latencies of a generated topology: the base RTT inside and
// between regions, and the fraction each link is jittered by.
const (
	genIntraRTT  = 8 * time.Millisecond
	genInterRTT  = 80 * time.Millisecond
	genRTTJitter = 0.25
)

// GenSpec parameterizes the generator. The zero value of every field
// has a sensible default (see withDefaults); a zero spec generates a
// small smoke-scale scenario.
type GenSpec struct {
	Seed int64

	// Topology: Clusters spread round-robin over Regions. Intra-region
	// links get genIntraRTT, inter-region links genInterRTT, both
	// jittered ±genRTTJitter.
	Clusters int
	Regions  int

	// Application: Services microservices partitioned across Classes
	// call trees (every service appears in exactly one class, so each
	// tree is trivially acyclic), plus one shared "ingress" frontend
	// placed everywhere. Trees are shaped by FanoutMean/MaxFanout.
	Services   int
	Classes    int
	FanoutMean float64
	MaxFanout  int

	// Work: per-call mean service time is log-uniform in
	// [MeanServiceTime/3, MeanServiceTime*3]; TailAlpha > 0 selects
	// heavy-tailed (Lomax) service times with that shape, 0 exponential.
	MeanServiceTime time.Duration
	TailAlpha       float64

	// Placement: each service runs in Spread clusters — its home plus
	// the nearest Spread-1 — with Replicas×Concurrency servers each.
	Spread      int
	Replicas    int
	Concurrency int

	// Load: TotalRPS split across classes by a heavy-tailed weight
	// (popularity skew); each class arrives at ArrivalSpread clusters
	// near its services' homes.
	TotalRPS      float64
	ArrivalSpread int

	// Locality table: clusters hosting a service keep 1-RemoteFraction
	// of its calls local and spill RemoteFraction to the two nearest
	// other placements; clusters without a local replica split between
	// the two nearest placements.
	RemoteFraction float64

	// Dynamics. ChurnEvents scheduled pool resizes (pod churn) land
	// uniformly in (Warmup, Duration). HotspotClasses get a migrating
	// hotspot: their load concentrates HotspotBoost× on one arrival
	// cluster at a time, rotating each phase. StormClasses get retry
	// amplification (leaf Count 2) plus a 3× mid-run burst.
	ChurnEvents    int
	HotspotClasses int
	HotspotBoost   float64
	StormClasses   int

	Duration time.Duration
	Warmup   time.Duration
}

func (s GenSpec) withDefaults() GenSpec {
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&s.Clusters, 8)
	def(&s.Regions, 4)
	if s.Regions > s.Clusters {
		s.Regions = s.Clusters
	}
	def(&s.Services, 40)
	def(&s.Classes, 8)
	if s.Classes > s.Services {
		s.Classes = s.Services
	}
	if s.FanoutMean <= 0 {
		s.FanoutMean = 1.8
	}
	def(&s.MaxFanout, 4)
	if s.MeanServiceTime <= 0 {
		s.MeanServiceTime = 3 * time.Millisecond
	}
	def(&s.Spread, 3)
	if s.Spread > s.Clusters {
		s.Spread = s.Clusters
	}
	def(&s.Replicas, 2)
	def(&s.Concurrency, 8)
	if s.TotalRPS <= 0 {
		s.TotalRPS = 2000
	}
	def(&s.ArrivalSpread, 2)
	if s.ArrivalSpread > s.Clusters {
		s.ArrivalSpread = s.Clusters
	}
	if s.RemoteFraction < 0 || s.RemoteFraction >= 1 {
		s.RemoteFraction = 0.1
	}
	if s.HotspotBoost <= 1 {
		s.HotspotBoost = 3
	}
	if s.Duration <= 0 {
		s.Duration = 20 * time.Second
	}
	if s.Warmup <= 0 || s.Warmup >= s.Duration {
		s.Warmup = s.Duration / 10
	}
	return s
}

// Generated is a materialized scenario: everything simrun needs, plus
// the static locality table to drive it with.
type Generated struct {
	Spec     GenSpec // the spec after defaulting
	Top      *topology.Topology
	App      *appgraph.App
	Workload []workload.Spec
	Table    *routing.Table
	Dynamics []simrun.PoolEvent
}

// Scenario assembles a simrun.Scenario from the generated parts.
func (g *Generated) Scenario(name string) simrun.Scenario {
	return simrun.Scenario{
		Name:     name,
		Top:      g.Top,
		App:      g.App,
		Workload: g.Workload,
		Duration: g.Spec.Duration,
		Warmup:   g.Spec.Warmup,
		Seed:     g.Spec.Seed,
		Dynamics: g.Dynamics,
	}
}

// Policy returns the static locality policy for the generated table.
func (g *Generated) Policy() simrun.Policy {
	return simrun.Static("locality", g.Table)
}

// IngressService is the shared frontend every generated class roots at
// (appgraph.Validate requires one frontend service).
const IngressService appgraph.ServiceID = "ingress"

// Gen100Spec is the planet-scale reference spec used by the golden
// fixture, the parallel-DES experiment, and the 1M-RPS benchmark: 100
// clusters across 10 regions, 1000 services, 125 traffic classes, 1M
// aggregate RPS, heavy-tailed service times, churn, hotspots, and retry
// storms all switched on.
func Gen100Spec() GenSpec {
	return GenSpec{
		Seed:            42,
		Clusters:        100,
		Regions:         10,
		Services:        1000,
		Classes:         125,
		FanoutMean:      2,
		MaxFanout:       4,
		MeanServiceTime: 2 * time.Millisecond,
		TailAlpha:       1.8,
		Spread:          3,
		Replicas:        4,
		Concurrency:     16,
		TotalRPS:        1_000_000,
		ArrivalSpread:   2,
		RemoteFraction:  0.12,
		ChurnEvents:     60,
		HotspotClasses:  10,
		HotspotBoost:    3,
		StormClasses:    10,
		Duration:        20 * time.Second,
		Warmup:          2 * time.Second,
	}
}

// Generate materializes spec. The result is deterministic in the spec.
func Generate(spec GenSpec) (*Generated, error) {
	s := spec.withDefaults()
	root := sim.NewRNG(s.Seed)

	// --- Topology ---------------------------------------------------
	ids := make([]topology.ClusterID, s.Clusters)
	region := make([]int, s.Clusters)
	b := topology.NewBuilder(topology.DefaultEgressPerGB)
	for i := range ids {
		ids[i] = topology.ClusterID(fmt.Sprintf("c%03d", i))
		region[i] = i % s.Regions
		b.AddCluster(ids[i], fmt.Sprintf("r%d", region[i]))
	}
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			base := genInterRTT
			if region[i] == region[j] {
				base = genIntraRTT
			}
			jit := root.DeriveNamed(fmt.Sprintf("rtt/%s/%s", ids[i], ids[j]))
			f := 1 + genRTTJitter*(2*jit.Float64()-1)
			b.SetRTT(ids[i], ids[j], time.Duration(f*float64(base)))
		}
	}
	top, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("scenario: generate topology: %w", err)
	}
	nearest := make(map[topology.ClusterID][]topology.ClusterID, len(ids))
	for _, c := range ids {
		nearest[c] = top.Nearest(c)
	}

	// --- Services and placement -------------------------------------
	app := &appgraph.App{
		Name:     fmt.Sprintf("gen-%dc-%ds", s.Clusters, s.Services),
		Services: map[appgraph.ServiceID]*appgraph.Service{},
	}
	app.Services[IngressService] = &appgraph.Service{
		ID:        IngressService,
		Placement: appgraph.Uniform(appgraph.ReplicaPool{Replicas: 2, Concurrency: 64}, ids...),
	}
	svcIDs := make([]appgraph.ServiceID, s.Services)
	home := make(map[appgraph.ServiceID]topology.ClusterID, s.Services)
	for i := range svcIDs {
		sid := appgraph.ServiceID(fmt.Sprintf("svc%04d", i))
		svcIDs[i] = sid
		h := ids[root.DeriveNamed("home/"+string(sid)).Intn(len(ids))]
		home[sid] = h
		placement := map[topology.ClusterID]appgraph.ReplicaPool{
			h: {Replicas: s.Replicas, Concurrency: s.Concurrency},
		}
		for _, c := range nearest[h] {
			if len(placement) >= s.Spread {
				break
			}
			placement[c] = appgraph.ReplicaPool{Replicas: s.Replicas, Concurrency: s.Concurrency}
		}
		app.Services[sid] = &appgraph.Service{ID: sid, Placement: placement}
	}

	// --- Classes: partition services into per-class call trees -------
	// Service i belongs to class i % Classes, so every service is used
	// exactly once and every tree is acyclic by construction.
	perClass := make([][]appgraph.ServiceID, s.Classes)
	for i, sid := range svcIDs {
		perClass[i%s.Classes] = append(perClass[i%s.Classes], sid)
	}
	for ci, members := range perClass {
		name := fmt.Sprintf("cls%03d", ci)
		stream := root.DeriveNamed("class/" + name)
		stream.Shuffle(len(members), func(a, b int) { members[a], members[b] = members[b], members[a] })
		storm := ci >= s.Classes-s.StormClasses
		rootNode := &appgraph.CallNode{
			Service: IngressService,
			Method:  "GET", Path: "/" + name, Count: 1,
			Work:     appgraph.Work{MeanServiceTime: 100 * time.Microsecond, Dist: appgraph.DistExponential},
			Parallel: true,
		}
		// Breadth-first tree shaping: each open node adopts 1..MaxFanout
		// children (mean FanoutMean) until the class's services run out.
		open := []*appgraph.CallNode{rootNode}
		next := 0
		for len(open) > 0 && next < len(members) {
			n := open[0]
			open = open[1:]
			fan := 1 + stream.Intn(2*int(s.FanoutMean+0.5))
			if fan > s.MaxFanout {
				fan = s.MaxFanout
			}
			for f := 0; f < fan && next < len(members); f++ {
				sid := members[next]
				next++
				mean := float64(s.MeanServiceTime) * (1.0 / 3 * math.Pow(9, stream.Float64()))
				dist, alpha := appgraph.DistExponential, 0.0
				if s.TailAlpha > 1 {
					dist, alpha = appgraph.DistPareto, s.TailAlpha
				}
				count := 1
				if storm && stream.Float64() < 0.5 {
					count = 2 // retry amplification on this edge
				}
				child := &appgraph.CallNode{
					Service: sid,
					Method:  "GET", Path: "/" + string(sid), Count: count,
					Work: appgraph.Work{
						MeanServiceTime: time.Duration(mean),
						Dist:            dist,
						TailAlpha:       alpha,
						RequestBytes:    int64(200 + stream.Intn(2000)),
						ResponseBytes:   int64(500 + stream.Intn(20000)),
					},
					Parallel: stream.Float64() < 0.5,
				}
				n.Children = append(n.Children, child)
				open = append(open, child)
			}
		}
		app.Classes = append(app.Classes, &appgraph.Class{Name: name, Root: rootNode})
	}

	// --- Workload: heavy-tailed popularity, locality, dynamics -------
	weights := make([]float64, s.Classes)
	sum := 0.0
	for ci := range weights {
		w := 0.1 + root.DeriveNamed(fmt.Sprintf("pop/cls%03d", ci)).Pareto(1, 1.5)
		weights[ci] = w
		sum += w
	}
	var specs []workload.Spec
	for ci, cl := range app.Classes {
		rate := s.TotalRPS * weights[ci] / sum
		// Arrivals land near the class's first service home.
		anchor := home[perClass[ci][0]]
		arrivals := []topology.ClusterID{anchor}
		for _, c := range nearest[anchor] {
			if len(arrivals) >= s.ArrivalSpread {
				break
			}
			arrivals = append(arrivals, c)
		}
		hotspot := ci < s.HotspotClasses
		storm := ci >= s.Classes-s.StormClasses
		for ai, c := range arrivals {
			share := rate / float64(len(arrivals))
			var phases []workload.Phase
			switch {
			case hotspot && len(arrivals) > 1:
				// The hotspot rotates across arrival clusters: phase p
				// concentrates HotspotBoost× of the share on arrival
				// p % len(arrivals), the rest cools to compensate so the
				// class total stays ~rate.
				nPhases := len(arrivals)
				phaseDur := s.Duration / time.Duration(nPhases)
				boost := s.HotspotBoost
				if max := float64(len(arrivals)); boost > max {
					boost = max // conserve the class total: cool floors at 0
				}
				cool := share * (float64(len(arrivals)) - boost) / float64(len(arrivals)-1)
				for p := 0; p < nPhases; p++ {
					rps := cool
					if p%len(arrivals) == ai {
						rps = share * boost
					}
					d := phaseDur
					if p == nPhases-1 {
						d = 0 // open-ended final phase
					}
					phases = append(phases, workload.Phase{RPS: rps, Duration: d})
				}
			case storm:
				// Baseline, then a 3× retry-storm burst for 10% of the
				// run starting mid-way, then recovery.
				phases = []workload.Phase{
					{RPS: share, Duration: s.Duration / 2},
					{RPS: 3 * share, Duration: s.Duration / 10},
					{RPS: share},
				}
			default:
				phases = []workload.Phase{{RPS: share}}
			}
			specs = append(specs, workload.Spec{
				Class: cl.Name, Cluster: c, Process: workload.Poisson, Phases: phases,
			})
		}
	}

	// --- Capacity sizing ---------------------------------------------
	// Spec.Replicas is a floor: pools are sized so each service runs at
	// ~55% utilization under the base offered load. Expected busy
	// servers per service = Σ_class rate × call multiplier × mean
	// service time, split evenly across its placements. Without this,
	// large TotalRPS (the 1M-RPS reference spec) would drive fixed-size
	// pools far past saturation and the simulation would never drain.
	const targetUtil = 0.55
	busy := map[appgraph.ServiceID]float64{} // expected busy servers
	for ci, cl := range app.Classes {
		rate := s.TotalRPS * weights[ci] / sum
		var walk func(n *appgraph.CallNode, mult float64)
		walk = func(n *appgraph.CallNode, mult float64) {
			m := mult * float64(n.Count)
			busy[n.Service] += rate * m * n.Work.MeanServiceTime.Seconds()
			for _, ch := range n.Children {
				walk(ch, m)
			}
		}
		walk(cl.Root, 1)
	}
	sized := map[appgraph.ServiceID]int{}
	for _, sid := range svcIDs {
		svc := app.Services[sid]
		perPool := busy[sid] / float64(len(svc.Placement)) / targetUtil
		reps := int(math.Ceil(perPool / float64(s.Concurrency)))
		if reps < s.Replicas {
			reps = s.Replicas
		}
		sized[sid] = reps
		for c := range svc.Placement {
			svc.Placement[c] = appgraph.ReplicaPool{Replicas: reps, Concurrency: s.Concurrency}
		}
	}

	// --- Static locality table with RemoteFraction spill -------------
	rules := map[routing.Key]routing.Distribution{}
	for _, sid := range svcIDs {
		svc := app.Services[sid]
		for _, c := range ids {
			var placed []topology.ClusterID
			if svc.PlacedIn(c) {
				placed = append(placed, c)
			}
			for _, n := range nearest[c] {
				if len(placed) >= 3 {
					break
				}
				if svc.PlacedIn(n) {
					placed = append(placed, n)
				}
			}
			w := map[topology.ClusterID]float64{}
			if placed[0] == c {
				w[c] = 1 - s.RemoteFraction
				for _, p := range placed[1:] {
					w[p] = s.RemoteFraction / float64(len(placed)-1)
				}
				if len(placed) == 1 {
					w[c] = 1
				}
			} else {
				for _, p := range placed {
					w[p] = 1 / float64(len(placed))
				}
			}
			d, err := routing.NewDistribution(w)
			if err != nil {
				return nil, fmt.Errorf("scenario: generate rule for %s@%s: %w", sid, c, err)
			}
			rules[routing.Key{Service: string(sid), Class: routing.AnyClass, Cluster: c}] = d
		}
	}

	// --- Pod churn --------------------------------------------------
	var dynamics []simrun.PoolEvent
	for e := 0; e < s.ChurnEvents; e++ {
		stream := root.DeriveNamed(fmt.Sprintf("churn/%d", e))
		sid := svcIDs[stream.Intn(len(svcIDs))]
		// Resize a deterministic placement of that service: its home.
		// The new size is 0.5–1.5× the capacity-sized pool, so churn
		// perturbs queueing without collapsing a hot service entirely.
		at := s.Warmup + time.Duration(stream.Float64()*float64(s.Duration-s.Warmup))
		base := sized[sid]
		replicas := base/2 + stream.Intn(base+1)
		if replicas < 1 {
			replicas = 1
		}
		dynamics = append(dynamics, simrun.PoolEvent{
			At: at, Service: sid, Cluster: home[sid], Replicas: replicas,
		})
	}

	g := &Generated{
		Spec:     s,
		Top:      top,
		App:      app,
		Workload: specs,
		Table:    routing.NewTable(1, rules),
		Dynamics: dynamics,
	}
	if err := app.Validate(top); err != nil {
		return nil, fmt.Errorf("scenario: generated app invalid: %w", err)
	}
	scn := g.Scenario("gen-validate")
	if err := scn.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: generated scenario invalid: %w", err)
	}
	return g, nil
}
