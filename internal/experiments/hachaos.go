package experiments

import (
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/emul"
	"github.com/servicelayernetworking/slate/internal/fault"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// HA chaos scenario parameters. The sync period is the control round
// the rest of the repo calls a "window"; the lease TTL is 1.5 periods
// so a dead leader is deposed on the second round after the crash —
// time-to-fresh-table ≤ 2 sync periods by construction, and the
// experiment verifies the implementation actually delivers it.
const (
	haChaosPeriod   = 100 * time.Millisecond
	haChaosLeaseTTL = haChaosPeriod + haChaosPeriod/2
	// Per-cluster chain capacity: chainApp pools are 2 replicas x 4
	// concurrency at 10ms mean service time = 800 RPS, and every request
	// traverses all three services of the chain.
	haChaosCap = 800.0
	// Operator restart of the unreplicated controller, in sync periods
	// (a fast 5s MTTR at the 100ms period — generous to the baseline).
	haChaosMTTR = 50
	// Offered load (RPS): a steady phase both clusters serve locally,
	// then a west-heavy burst the optimizer offloads east, then the
	// burst flips east-heavy at the instant the leader dies.
	haChaosSteadyWest = 600.0
	haChaosSteadyEast = 100.0
	haChaosBurstHot   = 1400.0
	haChaosBurstCold  = 100.0
)

type haChaosDemand struct{ west, east float64 }

func (d haChaosDemand) total() float64 { return d.west + d.east }

type haChaosLeg struct {
	availability float64
	ttfPeriods   int // control rounds from leader death to a fresh table
	errWindows   int // control rounds that reported errors (all post-kill)
	served       []float64
}

// HAChaos is the leader-failover chaos experiment for the replicated
// control plane: the same seeded demand timeline — steady, a west-heavy
// burst, then a flip to east-heavy that lands the very round the
// elected leader is killed — run twice on the socket-level emulation
// mesh. The replicated leg runs three global replicas contending for
// the majority lease with warm snapshot handoff, each re-planning once
// per sync period like the single controller; the baseline leg runs the classic single ticker, restarted
// by an "operator" after haChaosMTTR sync periods.
//
// Availability is evaluated analytically each window at the ingress:
// the offered load of each cluster is split by the frontend rule of the
// table that cluster's controller currently holds, and arriving load is
// capped at per-cluster chain capacity (downstream hops follow the
// arrival cluster — the chain optimum offloads at the ingress). That
// makes the figure a pure function of control-plane freshness, and —
// with lease timing on a virtual clock advanced one period per round —
// bit-deterministic for a fixed seed at any GOMAXPROCS.
func HAChaos(opt Options) (*Figure, error) {
	opt = opt.defaults()
	n := int(opt.Duration / haChaosPeriod)
	if n < 120 {
		n = 120
	}
	steady := n / 6
	kill := steady + (n-steady)/2
	demandAt := func(w int) haChaosDemand {
		switch {
		case w < steady:
			return haChaosDemand{haChaosSteadyWest, haChaosSteadyEast}
		case w < kill:
			return haChaosDemand{haChaosBurstHot, haChaosBurstCold}
		default:
			return haChaosDemand{haChaosBurstCold, haChaosBurstHot}
		}
	}

	repl, err := runHAChaosLeg(opt, n, kill, demandAt, true)
	if err != nil {
		return nil, fmt.Errorf("hachaos replicated: %w", err)
	}
	single, err := runHAChaosLeg(opt, n, kill, demandAt, false)
	if err != nil {
		return nil, fmt.Errorf("hachaos single: %w", err)
	}

	fig := &Figure{
		ID:    "hachaos",
		Title: "Leader failover: replicated control plane with warm handoff vs single ticker",
		Notes: []string{
			fmt.Sprintf("%d sync periods of %v; demand flips east-heavy and the leader dies at period %d", n, haChaosPeriod, kill),
			fmt.Sprintf("3 replicas, lease TTL %v (1.5 periods), warm snapshot handoff; baseline restarted after %d periods", haChaosLeaseTTL, haChaosMTTR),
			fmt.Sprintf("steady west/east %v/%v RPS, burst %v/%v RPS, per-cluster capacity %v RPS, seed %d",
				haChaosSteadyWest, haChaosSteadyEast, haChaosBurstHot, haChaosBurstCold, haChaosCap, opt.Seed),
			"availability = served/offered with arriving load split by each cluster's live frontend rule, capped at chain capacity",
		},
		Summary: map[string]float64{},
	}
	mk := func(name string, served []float64) Series {
		s := Series{Name: name, XLabel: "sync period", YLabel: "served RPS"}
		for w, v := range served {
			s.X = append(s.X, float64(w))
			s.Y = append(s.Y, v)
		}
		return s
	}
	fig.Series = append(fig.Series, mk("replicated-served", repl.served), mk("single-served", single.served))
	fig.Summary["replicated_availability"] = repl.availability
	fig.Summary["single_availability"] = single.availability
	fig.Summary["availability_gain"] = repl.availability - single.availability
	fig.Summary["replicated_ttf_periods"] = float64(repl.ttfPeriods)
	fig.Summary["single_ttf_periods"] = float64(single.ttfPeriods)
	fig.Summary["windows"] = float64(n)
	fig.Summary["kill_window"] = float64(kill)
	return fig, nil
}

// runHAChaosLeg drives one leg of the chaos scenario window by window:
// advance the virtual clock one period, ingest the window's synthetic
// ingress telemetry, run a synchronous control round, then score the
// window's offered load against the tables the clusters now hold.
func runHAChaosLeg(opt Options, n, kill int, demandAt func(int) haChaosDemand, replicated bool) (*haChaosLeg, error) {
	inj := fault.NewInjector()
	mo := emul.Options{
		Top:        topology.TwoClusters(10 * time.Millisecond),
		App:        chainApp(topology.West, topology.East),
		NetemScale: 0.1,
		Seed:       opt.Seed,
		Fault:      inj,
		Controller: core.ControllerConfig{DemandSmoothing: 1, Decompose: true},
	}
	if replicated {
		mo.Replicas = 3
		mo.LeaseTTL = haChaosLeaseTTL
	}
	m, err := emul.Start(mo)
	if err != nil {
		return nil, err
	}
	defer m.Close()

	clk := &haChaosClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
	m.SetNow(clk.Now)
	frontend := string(mo.App.FrontendService())
	hops := haChaosHops(mo.App)
	ingest := func(cl topology.ClusterID, rps float64) {
		m.ClusterController(cl).Ingest([]telemetry.WindowStats{{
			Key:      telemetry.MetricKey{Service: frontend, Class: "default", Cluster: string(cl)},
			RPS:      rps,
			Requests: uint64(rps * haChaosPeriod.Seconds()),
			Window:   haChaosPeriod,
		}})
	}

	leg := &haChaosLeg{ttfPeriods: -1}
	var offeredSum, servedSum float64
	var vKill uint64
	leader := -1
	for w := 0; w < n; w++ {
		if w == kill {
			vKill = m.ClusterController(topology.East).Table().Version
			for i, g := range m.Globals() {
				if g.IsLeader() {
					leader = i
				}
			}
			if leader < 0 {
				return nil, fmt.Errorf("no leader elected by kill window %d", kill)
			}
			m.CrashGlobalReplica(leader)
		}
		if w == kill+haChaosMTTR {
			// The operator restarts the single controller; the replicated
			// leg's replaced pod rejoins as a follower at the same moment.
			m.RestartGlobalReplica(leader)
		}
		clk.Advance(haChaosPeriod)
		d := demandAt(w)
		ingest(topology.West, d.west)
		ingest(topology.East, d.east)
		if err := m.TickControl(haChaosPeriod); err != nil {
			// Reports to a crashed replica and snapshot fetches from a dead
			// leader fail by design; before the kill every round must be clean.
			if w < kill {
				return nil, fmt.Errorf("window %d: %w", w, err)
			}
			leg.errWindows++
		}
		served := haChaosServed(m, hops, d)
		offeredSum += d.total()
		servedSum += served
		leg.served = append(leg.served, served)
		if w >= kill && leg.ttfPeriods < 0 {
			if v := m.ClusterController(topology.East).Table().Version; v > vKill {
				leg.ttfPeriods = w - kill + 1
			}
		}
	}
	if leg.ttfPeriods < 0 {
		return nil, fmt.Errorf("control plane never published a fresh table after the kill")
	}
	leg.availability = servedSum / offeredSum
	return leg, nil
}

// haChaosServed scores one window analytically: the window's offered
// load enters at each cluster's gateway (negligible work), then flows
// down the service chain hop by hop. At every hop the load in a cluster
// is steered by that cluster's live routing table (local when the table
// has no rule) and the arriving load is capped at the hop's per-cluster
// pool capacity — load shed at one hop never reaches the next.
func haChaosServed(m *emul.Mesh, hops []string, d haChaosDemand) float64 {
	clusters := []topology.ClusterID{topology.West, topology.East}
	load := map[topology.ClusterID]float64{topology.West: d.west, topology.East: d.east}
	for _, svc := range hops {
		next := map[topology.ClusterID]float64{}
		for _, src := range clusters {
			dist := m.ClusterController(src).Table().Lookup(svc, "default", src)
			if dist.IsZero() {
				next[src] += load[src]
				continue
			}
			for dst, w := range dist.All() {
				next[dst] += load[src] * w
			}
		}
		for _, c := range clusters {
			next[c] = math.Min(next[c], haChaosCap)
		}
		load = next
	}
	var served float64
	for _, c := range clusters {
		served += load[c]
	}
	return math.Min(served, d.total())
}

// haChaosHops lists the chain's routable services in call order (the
// gateway's descendants — the gateway itself does negligible work and
// is never a bottleneck).
func haChaosHops(app *appgraph.App) []string {
	var hops []string
	for n := app.Class("default").Root; len(n.Children) > 0; {
		n = n.Children[0]
		hops = append(hops, string(n.Service))
	}
	return hops
}

// haChaosClock is the experiment's virtual lease clock: the cluster
// controllers read it through Mesh.SetNow, and the leg advances it one
// sync period per control round.
type haChaosClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *haChaosClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *haChaosClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}
