// adapter.go is the only file of the benchmark that imports SLATE's
// packages: controller config literal, mesh / cluster / global
// constructors, engine entry points and the per-layer probes. A PR that
// changes one of those APIs needs a companion change here and nowhere
// else in benchmark/.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/classifier"
	"github.com/servicelayernetworking/slate/internal/controlplane"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/dataplane"
	"github.com/servicelayernetworking/slate/internal/emul"
	"github.com/servicelayernetworking/slate/internal/obs"
	"github.com/servicelayernetworking/slate/internal/queuemodel"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/scenario"
	"github.com/servicelayernetworking/slate/internal/search"
	"github.com/servicelayernetworking/slate/internal/sim"
	"github.com/servicelayernetworking/slate/internal/simrun"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
	"github.com/servicelayernetworking/slate/internal/workload"
)

// Aliases let the harness files hold program values without importing
// the program.
type (
	windowStats = telemetry.WindowStats
	meshSpan    = telemetry.Span
)

// Wire header names the request-path harness reads or sets.
const (
	headerOutbound = dataplane.HeaderOutbound
	headerTraceID  = dataplane.HeaderTraceID
	egressService  = "__egress__"
)

// rng is the harness's view of sim.RNG; every stream is derived by name
// from the workload seed.
type rng interface {
	Float64() float64
}

func newRNG(seed int64, name string) rng { return sim.NewRNG(seed).DeriveNamed(name) }

// serveFunc starts a harness-owned loopback listener for h and returns
// its base URL.
type serveFunc func(h http.Handler) (string, error)

// ---------------------------------------------------------------------
// Request path: mesh-chain
// ---------------------------------------------------------------------

const (
	meshWest = string(topology.West)
	// meshHops is the number of services a request visits (gateway plus
	// the chained services), i.e. inbound sidecar passes per request.
	meshHops = 3
)

type meshRig struct {
	mesh     *emul.Mesh
	frontend string // West frontend sidecar URL
	method   string
	path     string
	reqLen   int64
	bodyLen  int64
	tab      *routing.Table
}

// startMesh starts the two-cluster, three-service chain with app sleep
// and netem scaled to nothing (bare forwarding, the "smallest packet"
// case), no background control loop, and a fixed 50/50 west/east
// AnyClass table on both cluster controllers.
func startMesh(seed int64) (*meshRig, error) {
	top := topology.TwoClusters(20 * time.Millisecond)
	app := appgraph.LinearChain(appgraph.ChainOptions{
		Services:        meshHops - 1,
		MeanServiceTime: time.Millisecond,
		Pool:            appgraph.ReplicaPool{Replicas: 4, Concurrency: 16},
		Clusters:        top.ClusterIDs(),
		RequestBytes:    64,
		ResponseBytes:   128,
	})
	m, err := emul.Start(emul.Options{
		Top: top, App: app,
		TimeScale: 1e-9, NetemScale: 1e-9,
		ControlPeriod: 0,
		Seed:          seed,
	})
	if err != nil {
		return nil, err
	}
	half, err := routing.NewDistribution(map[topology.ClusterID]float64{topology.West: 0.5, topology.East: 0.5})
	if err != nil {
		m.Close()
		return nil, err
	}
	rules := map[routing.Key]routing.Distribution{}
	for sid := range app.Services {
		if sid == app.FrontendService() {
			continue
		}
		for _, c := range top.ClusterIDs() {
			rules[routing.Key{Service: string(sid), Class: routing.AnyClass, Cluster: c}] = half
		}
	}
	tab := routing.NewTable(1, rules)
	if err := tab.Validate(top); err != nil {
		m.Close()
		return nil, err
	}
	for _, c := range top.ClusterIDs() {
		m.ClusterController(c).ApplyTable(tab)
	}
	fe, err := m.FrontendURL(topology.West)
	if err != nil {
		m.Close()
		return nil, err
	}
	root := app.Classes[0].Root
	return &meshRig{mesh: m, frontend: fe, method: root.Method, path: root.Path,
		reqLen: root.Work.RequestBytes, bodyLen: root.Work.ResponseBytes, tab: tab}, nil
}

func (r *meshRig) close() { r.mesh.Close() }

// collect plays the cluster controllers' periodic role: flush every
// proxy's window and drain the span buffers (they otherwise grow without
// bound). It returns the inbound requests counted (non-egress keys) and
// the drained spans.
func (r *meshRig) collect(window time.Duration) (requests uint64, spans []meshSpan) {
	for _, c := range []topology.ClusterID{topology.West, topology.East} {
		for _, ws := range r.mesh.ClusterController(c).Collect(window) {
			if ws.Key.Service != egressService {
				requests += ws.Requests
			}
		}
	}
	return requests, r.mesh.DrainSpans()
}

// checkTraces groups spans by trace and rebuilds every call tree: each
// must be complete (one root, meshHops spans, no orphan). It returns the
// number of traces and how many of the non-root spans crossed clusters.
func checkTraces(spans []meshSpan) (traces, remote, nonRoot int, err error) {
	for id, group := range obs.GroupTraces(spans) {
		tree, terr := telemetry.BuildTree(group)
		if terr != nil {
			return 0, 0, 0, fmt.Errorf("trace %x: %w", id, terr)
		}
		if len(tree.Orphans) > 0 || tree.NumSpans != meshHops {
			return 0, 0, 0, fmt.Errorf("trace %x: %d spans, %d orphans, want %d spans", id, tree.NumSpans, len(tree.Orphans), meshHops)
		}
		traces++
		tree.Root.Walk(func(n *telemetry.TraceNode) {
			if n.Span.Parent != 0 {
				nonRoot++
				if n.Span.Remote {
					remote++
				}
			}
		})
	}
	return traces, remote, nonRoot, nil
}

// addMeshSpans files the sidecars' own spans in the harness trace, each
// under its caller's span and the root under the client span of the
// request that carried the same trace id. Span names are
// emul.inbound.<service>; it returns the name of the chain's leaf.
func addMeshSpans(tr *tracer, spans []meshSpan, clientSpan map[uint64]int) (leaf string) {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	ids := make(map[telemetry.SpanID]int, len(spans))
	for _, s := range spans {
		parent := ids[s.Parent]
		if s.Parent == 0 {
			parent = clientSpan[uint64(s.Trace)]
		}
		ids[s.ID] = tr.add("emul.inbound."+s.Service, int(s.Trace), parent, time.Unix(0, int64(s.Start)), s.Latency())
	}
	return fmt.Sprintf("emul.inbound.svc-%d", meshHops-1)
}

// scrapeURL is where the Prometheus exposition is served (every sidecar
// serves the shared registry on its own port).
func (r *meshRig) scrapeURL() string { return r.frontend + obs.MetricsPath }

// probeProxy builds one sidecar in front of localApp for the
// added-latency probes; peers resolve to peerURL.
func probeProxy(localApp, peerURL string, seed int64) (http.Handler, error) {
	return dataplane.New(dataplane.Config{
		Service:  "probe",
		Cluster:  topology.West,
		LocalApp: localApp,
		Resolver: dataplane.ResolverFunc(func(string, topology.ClusterID) (string, error) { return peerURL, nil }),
		RNG:      sim.NewRNG(seed).DeriveNamed("probe-proxy"),
	})
}

// Micro-probes on the request path's leaf modules. Each returns a
// closure that performs one operation; the harness times batches of it.

func probeLookupPick(r *meshRig, seed int64) func() {
	g := sim.NewRNG(seed).DeriveNamed("probe/pick")
	return func() { r.tab.Lookup("svc-1", "default", topology.West).Pick(g.Float64()) }
}

func probeClassify() func() {
	c := classifier.New(classifier.Options{MinSamples: 1, TemplatePaths: true})
	return func() {
		c.Observe("gateway", "POST", "/ingress")
		c.Classify("gateway", "POST", "/ingress")
	}
}

func probeRecord() func() {
	a := telemetry.NewAggregator()
	k := telemetry.MetricKey{Service: "svc-1", Class: "default", Cluster: meshWest}
	return func() { a.Record(k, 750*time.Microsecond, 0) }
}

func probeSetTable(r *meshRig) (func(), error) {
	p, err := dataplane.New(dataplane.Config{
		Service: "probe", Cluster: topology.West,
		Resolver: dataplane.ResolverFunc(func(string, topology.ClusterID) (string, error) { return "", nil }),
		Metrics:  obs.NewRegistry(),
	})
	if err != nil {
		return nil, err
	}
	return func() { p.SetTable(r.tab) }, nil
}

// ---------------------------------------------------------------------
// Control loop: ctrl-churn, ctrl-steady
// ---------------------------------------------------------------------

// controllerConfig is the one controller configuration the benchmark
// runs: decomposed, raced, demand taken from the newest window.
func controllerConfig() core.ControllerConfig {
	return core.ControllerConfig{DemandSmoothing: 1, Decompose: true, Search: true, SkipEpsilon: 0.02}
}

// deploymentSeed fixes the generated deployments (topology, call trees,
// placement). The workload seed drives only the traffic on them: solve
// and simulation cost vary by tens of percent from one generated
// deployment to the next, which would drown every bound.
const deploymentSeed = 1

// ctrlSpec is the gapcurve formulation scaled to three quarters — 48
// clusters / 6 regions / 96 services / 24 classes / 150 k RPS — so that
// a run of seconds holds dozens of all-shards-dirty ticks; smaller sizes
// shrink every dimension for the smoke test.
func ctrlSpec(size float64) scenario.GenSpec {
	return scenario.GenSpec{
		Seed:            deploymentSeed,
		Clusters:        scaled(48, size, 4),
		Regions:         scaled(6, size, 2),
		Services:        scaled(96, size, 8),
		Classes:         scaled(24, size, 2),
		Spread:          3,
		Replicas:        3,
		Concurrency:     8,
		TotalRPS:        150000 * size,
		ArrivalSpread:   2,
		RemoteFraction:  0.1,
		MeanServiceTime: 2 * time.Millisecond,
	}
}

func scaled(n int, size float64, floor int) int {
	v := int(float64(n)*size + 0.5)
	if v < floor {
		v = floor
	}
	return v
}

type ctrlRig struct {
	gen      *scenario.Generated
	ctrl     *core.Controller
	global   *controlplane.Global
	ids      []topology.ClusterID
	clusters []*controlplane.Cluster
	proxies  []*dataplane.Proxy
	// base[i] is cluster i's unperturbed window.
	base [][]baseStat
	ctx  context.Context
}

// baseStat is one key of a cluster's steady window with the ordinal of
// its class (the churn pattern alternates on it).
type baseStat struct {
	ws    windowStats
	class int
}

func noResolve(string, topology.ClusterID) (string, error) {
	return "", fmt.Errorf("benchmark: control-loop proxies carry no traffic")
}

func newProxy(c topology.ClusterID) (*dataplane.Proxy, error) {
	return dataplane.New(dataplane.Config{
		Service: "ingress", Cluster: c,
		Resolver: dataplane.ResolverFunc(noResolve),
	})
}

// newCtrlRig generates the deployment and wires one global controller
// and one cluster controller per cluster, each with one registered
// proxy, over harness-owned listeners. With serve == nil nothing
// listens and the cluster controllers have no upstream: that is the twin
// the staged replay drives by hand.
func newCtrlRig(ctx context.Context, size float64, serve serveFunc) (*ctrlRig, error) {
	g, err := scenario.Generate(ctrlSpec(size))
	if err != nil {
		return nil, err
	}
	ctrl, err := core.NewController(g.Top, g.App, controllerConfig())
	if err != nil {
		return nil, err
	}
	r := &ctrlRig{gen: g, ctrl: ctrl, global: controlplane.NewGlobal(ctrl), ids: g.Top.ClusterIDs(), ctx: ctx}
	globalURL := ""
	if serve != nil {
		if globalURL, err = serve(r.global.Handler()); err != nil {
			return nil, err
		}
	}
	for _, id := range r.ids {
		cc := controlplane.NewCluster(id, globalURL)
		if serve != nil {
			u, err := serve(cc.Handler())
			if err != nil {
				return nil, err
			}
			if err := cc.Register(ctx, u); err != nil {
				return nil, err
			}
		}
		p, err := newProxy(id)
		if err != nil {
			return nil, err
		}
		cc.AddProxy(p)
		r.clusters = append(r.clusters, cc)
		r.proxies = append(r.proxies, p)
	}
	r.buildBaseWindows()
	return r, nil
}

// buildBaseWindows derives each cluster's steady window from the
// generated workload: one frontend key per arriving (class, cluster)
// stream — the controller's demand signal — and one key per (service,
// class) the cluster hosts, loaded with an even share of the class's
// calls.
func (r *ctrlRig) buildBaseWindows() {
	g := r.gen
	idx := map[topology.ClusterID]int{}
	for i, id := range r.ids {
		idx[id] = i
	}
	acc := make([]map[telemetry.MetricKey]*windowStats, len(r.ids))
	for i := range acc {
		acc[i] = map[telemetry.MetricKey]*windowStats{}
	}
	add := func(c topology.ClusterID, svc, class string, rps float64, lat time.Duration) {
		k := telemetry.MetricKey{Service: svc, Class: class, Cluster: string(c)}
		ws := acc[idx[c]][k]
		if ws == nil {
			ws = &windowStats{Key: k, Window: ctrlWindow, MeanLatency: lat, P50: lat, P99: 3 * lat}
			acc[idx[c]][k] = ws
		}
		ws.RPS += rps
	}
	classRate := map[string]float64{}
	for _, sp := range g.Workload {
		rate := sp.RateAt(0)
		if rate <= 0 {
			continue
		}
		classRate[sp.Class] += rate
		add(sp.Cluster, string(scenario.IngressService), sp.Class, rate, 100*time.Microsecond)
	}
	classOrd := map[string]int{}
	for ci, cl := range g.App.Classes {
		classOrd[cl.Name] = ci
		var walk func(n *appgraph.CallNode, mult float64)
		walk = func(n *appgraph.CallNode, mult float64) {
			m := mult * float64(n.Count)
			if n != cl.Root {
				placed := g.App.Services[n.Service].Clusters(g.Top)
				for _, c := range placed {
					add(c, string(n.Service), cl.Name, classRate[cl.Name]*m/float64(len(placed)), n.Work.MeanServiceTime)
				}
			}
			for _, ch := range n.Children {
				walk(ch, m)
			}
		}
		walk(cl.Root, 1)
	}
	r.base = make([][]baseStat, len(r.ids))
	for i, m := range acc {
		for _, ws := range m {
			r.base[i] = append(r.base[i], baseStat{*ws, classOrd[ws.Key.Class]})
		}
		sort.Slice(r.base[i], func(a, b int) bool {
			ka, kb := r.base[i][a].ws.Key, r.base[i][b].ws.Key
			if ka.Service != kb.Service {
				return ka.Service < kb.Service
			}
			return ka.Class < kb.Class
		})
	}
}

// window scales cluster i's base window key by key.
func (r *ctrlRig) window(i int, factor func(classOrd int) float64) []windowStats {
	out := make([]windowStats, len(r.base[i]))
	for j, b := range r.base[i] {
		b.ws.RPS *= factor(b.class)
		b.ws.Requests = uint64(b.ws.RPS*ctrlWindow.Seconds() + 0.5)
		out[j] = b.ws
	}
	return out
}

func (r *ctrlRig) nClusters() int { return len(r.ids) }

func (r *ctrlRig) ingest(i int, w []windowStats) { r.clusters[i].Ingest(w) }

func (r *ctrlRig) report(i int) error { return r.clusters[i].Report(r.ctx, ctrlWindow) }

func (r *ctrlRig) tick() error { return r.global.Tick(r.ctx) }

// optimizerCounts is the cumulative OptimizerStats subset the harness
// differences per tick.
type optimizerCounts struct {
	subSolves, skipped, warm, cold, searchWins, shards uint64
}

func (r *ctrlRig) counts() optimizerCounts {
	s := r.ctrl.OptimizerStats()
	return optimizerCounts{s.SubSolves, s.SkippedSolves, s.WarmSolves, s.ColdSolves, s.SearchSolves, s.Shards}
}

// checkEffect verifies a tick took effect: the published table is valid
// for the topology, and every proxy holds that version with its
// staleness clock reset after start.
func (r *ctrlRig) checkEffect(start time.Time) error {
	tab := r.ctrl.Table()
	if err := tab.Validate(r.gen.Top); err != nil {
		return fmt.Errorf("published table invalid: %w", err)
	}
	maxAge := time.Since(start)
	for i, p := range r.proxies {
		if v := p.TableVersion(); v != tab.Version {
			return fmt.Errorf("proxy %s at table version %d, controller at %d", r.ids[i], v, tab.Version)
		}
		if age := p.RulesAge(); age > maxAge {
			return fmt.Errorf("proxy %s rules age %v, tick started %v ago", r.ids[i], age, maxAge)
		}
	}
	return nil
}

// sameTable reports whether the twin's published table equals the live
// one (the controller is deterministic, so identical windows must give
// identical tables).
func (r *ctrlRig) sameTable(twin *ctrlRig) error {
	a, b := r.ctrl.Table(), twin.ctrl.Table()
	if a.Version != b.Version {
		return fmt.Errorf("twin table version %d, live %d", b.Version, a.Version)
	}
	if d := routing.Diff(a, b); len(d) > 0 {
		return fmt.Errorf("twin table differs from live in %d rules (first %s)", len(d), d[0].Key)
	}
	return nil
}

// stagedTwin is a second control plane with no sockets on which the
// traced run replays every live tick step by step, through the public
// functions Cluster.Report and Global.Tick compose, plus the side probes
// (bare optimizer, whole-problem search).
type stagedTwin struct {
	rig       *ctrlRig
	ingestH   http.Handler // twin global's API, driven without a socket
	epoch     uint64
	lastStats [][]windowStats
	sent      []*routing.Table
	opt       *core.ShardedOptimizer
	optVer    uint64
	se        *search.Optimizer
	poolFn    func(appgraph.ServiceID, topology.ClusterID) (search.PoolParams, bool)
}

func newStagedTwin(ctx context.Context, size float64) (*stagedTwin, error) {
	rig, err := newCtrlRig(ctx, size, nil)
	if err != nil {
		return nil, err
	}
	cfg := controllerConfig()
	opt := core.NewShardedOptimizer(rig.gen.Top, rig.gen.App, cfg.Optimizer, cfg.SkipEpsilon)
	opt.EnableSearch(core.RaceConfig{Deadline: cfg.SearchDeadline, MaxGap: cfg.MaxGap})
	t := &stagedTwin{
		rig:       rig,
		ingestH:   controlplane.NewGlobal(rig.ctrl).Handler(),
		lastStats: make([][]windowStats, rig.nClusters()),
		sent:      make([]*routing.Table, rig.nClusters()),
		opt:       opt,
		se:        search.New(rig.gen.Top, rig.gen.App, search.Params{LatencyWeight: 1}),
	}
	return t, nil
}

// searchBudget is the whole-problem move budget of the
// search.reoptimize probe (the in-controller race spends its budget per
// shard; this probe re-optimizes all classes at once).
const searchBudget = 1 << 14

// reportEpsilon mirrors the cluster controller's delta threshold.
const reportEpsilon = 1e-9

// tick replays one tick on the twin, one span per step; windows are the
// per-cluster windows the live rig ingested for the same tick.
func (t *stagedTwin) tick(tr *tracer, op int, windows [][]windowStats) error {
	rig := t.rig
	n := rig.nClusters()
	t.epoch++
	root := tr.begin("ctrl.staged_tick", op, 0)
	defer tr.end(root)

	// Cluster side: collect, delta, encode.
	collected := make([][]windowStats, n)
	bodies := make([][]byte, n)
	sp := tr.begin("telemetry.flush", op, root)
	for _, p := range rig.proxies {
		p.FlushTelemetry(ctrlWindow)
	}
	tr.end(sp)
	sp = tr.begin("controlplane.collect", op, root)
	for i, cc := range rig.clusters {
		cc.Ingest(windows[i])
		collected[i] = cc.Collect(ctrlWindow)
	}
	tr.end(sp)
	sp = tr.begin("telemetry.delta", op, root)
	reps := make([]controlplane.MetricsReport, n)
	for i := range collected {
		reps[i] = controlplane.MetricsReport{Cluster: rig.ids[i], WindowMS: ctrlWindow.Milliseconds(), Epoch: t.epoch}
		if t.epoch == 1 {
			reps[i].Stats = collected[i]
		} else {
			reps[i].Delta = true
			reps[i].Stats, reps[i].Removed = telemetry.DeltaReport(t.lastStats[i], collected[i], reportEpsilon)
		}
		t.lastStats[i] = collected[i]
	}
	tr.end(sp)
	for i := range reps {
		b, err := json.Marshal(reps[i])
		if err != nil {
			return err
		}
		bodies[i] = b
	}

	// Global side: ingest (no socket), merge, controller tick.
	sp = tr.begin("controlplane.ingest", op, root)
	for i := range bodies {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/metrics", strings.NewReader(string(bodies[i])))
		t.ingestH.ServeHTTP(rec, req)
		if rec.Code/100 != 2 {
			tr.end(sp)
			return fmt.Errorf("staged ingest for %s: status %d", rig.ids[i], rec.Code)
		}
	}
	tr.end(sp)
	sp = tr.begin("telemetry.merge", op, root)
	merged := telemetry.Merge(collected...)
	tr.end(sp)
	sp = tr.begin("core.tick", op, root)
	tab, err := rig.ctrl.Tick(merged, ctrlWindow)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("twin controller tick: %w", err)
	}

	// Push side: restrict, diff, encode, apply.
	desired := make([]*routing.Table, n)
	patches := make([]*routing.Patch, n)
	sp = tr.begin("routing.restrict", op, root)
	for i, id := range rig.ids {
		desired[i] = tab.Restrict(id)
	}
	tr.end(sp)
	sp = tr.begin("routing.makepatch", op, root)
	for i := range desired {
		patches[i] = routing.MakePatch(t.sent[i], desired[i])
	}
	tr.end(sp)
	sp = tr.begin("routing.patch_encode", op, root)
	patchBytes := 0
	for i := range patches {
		b, err := json.Marshal(patches[i])
		if err != nil {
			tr.end(sp)
			return err
		}
		patchBytes += len(b)
	}
	tr.end(sp)
	tr.count("routing.patch_bytes", float64(patchBytes))
	sp = tr.begin("controlplane.apply", op, root)
	for i, cc := range rig.clusters {
		if err := cc.ApplyPatch(patches[i]); err != nil {
			tr.end(sp)
			return fmt.Errorf("staged apply on %s: %w", rig.ids[i], err)
		}
		t.sent[i] = desired[i]
	}
	tr.end(sp)
	return nil
}

// probes runs the side probes that are not steps of the tick: the bare
// optimizer on the twin's demand, and the whole-problem search on the
// same perturbation.
func (t *stagedTwin) probes(tr *tracer, op int) error {
	rig := t.rig
	demand, profiles := rig.ctrl.Demand(), rig.ctrl.Profiles()
	t.optVer++
	sp := tr.begin("core.optimize", op, 0)
	_, err := t.opt.Optimize(demand, profiles, t.optVer)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("probe optimize: %w", err)
	}

	if t.poolFn == nil {
		t.poolFn = func(svc appgraph.ServiceID, c topology.ClusterID) (search.PoolParams, bool) {
			prof, ok := profiles.Get(svc, c)
			if !ok {
				return search.PoolParams{}, false
			}
			segs, err := queuemodel.Linearize(prof.Model, nil)
			if err != nil {
				return search.PoolParams{}, false
			}
			return search.PoolParams{Ref: prof.RefServiceTime.Seconds(), Segs: segs}, true
		}
		if err := t.se.Reset(demand, t.poolFn, rig.gen.Table); err != nil {
			return fmt.Errorf("probe search reset: %w", err)
		}
		t.se.Run(searchBudget) // settle the incumbent outside the timed probe
	}
	classes := make([]string, 0, len(demand))
	for class := range demand {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	sp = tr.begin("search.reoptimize", op, 0)
	for _, class := range classes {
		for _, c := range rig.ids {
			if v, ok := demand[class][c]; ok {
				if err := t.se.SetDemand(class, c, v); err != nil {
					tr.end(sp)
					return fmt.Errorf("probe search demand: %w", err)
				}
			}
		}
	}
	t.se.Run(searchBudget)
	tr.end(sp)
	return nil
}

// ---------------------------------------------------------------------
// Simulator: sim-gen16
// ---------------------------------------------------------------------

// simVirtual is the virtual length of one sim-gen16 run (a fifth of it
// warm-up): about half a second of wall time on the reference box, so a
// run of seconds holds a dozen or more whole-scenario runs.
const simVirtual = 5 * time.Second

// simSpec is the pardes scenario (16 clusters, 96 services, 12 classes,
// 4000 RPS, Lomax tails, churn, hotspots, storms); size scales the
// service count and the virtual duration for the smoke test.
func simSpec(size float64) scenario.GenSpec {
	dur := time.Duration(float64(simVirtual) * size)
	if dur < time.Second {
		dur = time.Second
	}
	return scenario.GenSpec{
		Seed:           deploymentSeed,
		Clusters:       16,
		Regions:        4,
		Services:       scaled(96, size, 24),
		Classes:        12,
		TailAlpha:      1.8,
		TotalRPS:       4000,
		RemoteFraction: 0.12,
		ChurnEvents:    8,
		HotspotClasses: 2,
		StormClasses:   2,
		Duration:       dur,
		Warmup:         dur / 5,
	}
}

type simRig struct {
	gen *scenario.Generated
	scn simrun.Scenario
}

func newSimRig(seed int64, size float64) (*simRig, error) {
	g, err := scenario.Generate(simSpec(size))
	if err != nil {
		return nil, err
	}
	scn := g.Scenario("sim-gen16")
	scn.Seed = seed // arrivals, service times and picks; the deployment stays fixed
	// A control period makes the engines close telemetry windows and tick
	// the (static) policy every virtual second, as every experiment does.
	scn.ControlPeriod = time.Second
	return &simRig{gen: g, scn: scn}, nil
}

// simResult is what the harness needs from one run.
type simResult struct {
	generated, completed uint64
	mean                 time.Duration
	fingerprint          uint64
	events, windows      uint64
	messages             uint64
}

func summarize(res *simrun.Result) simResult {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%d/%d/%d/%d/%d", res.Generated, res.Completed, res.Failed, res.Mean, res.P50, res.P99, res.EgressBytes)
	out := simResult{generated: res.Generated, completed: res.Completed, mean: res.Mean, fingerprint: h.Sum64()}
	if p := res.Parallel; p != nil {
		out.events, out.windows, out.messages = p.Events, p.Windows, p.Messages
	}
	return out
}

// timedPolicy decorates the scenario's policy: every tick becomes a
// span under the run's span.
type timedPolicy struct {
	simrun.Policy
	tr     *tracer
	op     int
	parent int
}

func (p *timedPolicy) Tick(stats []telemetry.WindowStats, window time.Duration) (*routing.Table, error) {
	sp := p.tr.begin("simrun.policy_tick", p.op, p.parent)
	t, err := p.Policy.Tick(stats, window)
	p.tr.end(sp)
	return t, err
}

// countSink is the harness span sink of the traced run.
type countSink struct{ n uint64 }

func (s *countSink) WriteSpan(telemetry.Span) error { s.n++; return nil }

// simOpts selects the engine and the trace hooks of one run.
type simOpts struct {
	shards int     // 0 = serial engine
	spans  bool    // attach the harness span sink
	tr     *tracer // non-nil: time the policy's ticks as spans of op under parent
	op     int
	parent int
}

func (r *simRig) run(o simOpts) (simResult, uint64, error) {
	scn := r.scn
	var sink *countSink
	if o.spans {
		sink = &countSink{}
		scn.SpanSink = sink
	}
	pol := r.gen.Policy()
	if o.tr != nil {
		pol = &timedPolicy{Policy: pol, tr: o.tr, op: o.op, parent: o.parent}
	}
	var res *simrun.Result
	var err error
	if o.shards > 0 {
		res, err = simrun.RunParallel(scn, pol, simrun.ParallelOptions{Shards: o.shards})
	} else {
		res, err = simrun.Run(scn, pol)
	}
	if err != nil {
		return simResult{}, 0, err
	}
	var spans uint64
	if sink != nil {
		spans = sink.n
	}
	return summarize(res), spans, nil
}

// arrivals regenerates every arrival stream of the scenario the way the
// engines do at start, and returns how many arrivals that is.
func (r *simRig) arrivals() int {
	n := 0
	root := sim.NewRNG(r.scn.Seed)
	for _, sp := range r.scn.Workload {
		n += len(workload.Arrivals(sp, r.scn.Duration, root.DeriveNamed("arrivals/"+sp.Class+"@"+string(sp.Cluster))))
	}
	return n
}

// kernelReplay fires n no-op events through a bare kernel.
func kernelReplay(n uint64) {
	k := sim.NewKernel()
	var fire func(*sim.Kernel)
	left := n
	fire = func(k *sim.Kernel) {
		if left > 0 {
			left--
			k.After(time.Microsecond, fire)
		}
	}
	// A standing population of pending events keeps the heap at a
	// realistic depth instead of a single self-rescheduling event.
	const pending = 1024
	for i := 0; i < pending && left > 0; i++ {
		left--
		k.After(time.Duration(i)*time.Nanosecond, fire)
	}
	k.Run()
}

// setTableProbe swaps the twin's current cluster table into one of its
// proxies, the last step of rule distribution.
func (t *stagedTwin) setTableProbe() func() {
	p, tab := t.rig.proxies[0], t.rig.clusters[0].Table()
	return func() { p.SetTable(tab) }
}

func (r *simRig) virtual() time.Duration { return r.scn.Duration }
