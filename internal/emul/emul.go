// Package emul runs a SLATE deployment on real sockets: every replica
// pool becomes a loopback HTTP application server with a SLATE-proxy
// sidecar, every cluster gets a Cluster Controller, and a Global
// Controller optimizes over live telemetry — the whole paper
// architecture (Fig. 2) in one process. Inter-cluster latency is
// injected by netem (the `tc` substitute).
//
// The emulation exists to exercise the real networked code paths end to
// end; the discrete-event simulator (internal/simrun) is the tool for
// quantitative sweeps. On a small machine keep loads in the tens of
// RPS and scale service times down with TimeScale.
package emul

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/controlplane"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/dataplane"
	"github.com/servicelayernetworking/slate/internal/fault"
	"github.com/servicelayernetworking/slate/internal/netem"
	"github.com/servicelayernetworking/slate/internal/obs"
	"github.com/servicelayernetworking/slate/internal/sim"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// Options configures a mesh.
type Options struct {
	Top *topology.Topology
	App *appgraph.App
	// TimeScale multiplies every service time (0.1 = 10x faster). Zero
	// means 1.
	TimeScale float64
	// NetemScale multiplies inter-cluster delays. Zero means 1.
	NetemScale float64
	// ControlPeriod is the telemetry/optimization interval; zero
	// disables the background control loop (call TickControl manually).
	ControlPeriod time.Duration
	// Controller configures the SLATE global controller.
	Controller core.ControllerConfig
	// Seed for routing picks.
	Seed int64
	// Fault, when non-nil, injects failures into the mesh: every
	// control-plane RPC goes through a fault.Transport, a crashed
	// controller's HTTP API answers 503, and TickControl skips the
	// global optimization while the global controller is down. Drive
	// it directly (Crash/Restart/PartitionClusters) or replay a
	// fault.Schedule via Injector.Sync.
	Fault *fault.Injector
	// StaleAfter bounds control-plane staleness during faults: cluster
	// controllers exclude pushed telemetry older than this from the
	// global snapshot, and proxies degrade to local-biased routing when
	// their rules have not been refreshed within it. Zero disables both.
	StaleAfter time.Duration
	// Replicas > 1 runs a replicated global control plane: N global
	// controllers (fault targets "global:0" … "global:N-1") contend for
	// the leader lease held by the cluster controllers, which report
	// telemetry to all of them. TickControl then drives one HAStep per
	// live replica, in replica order. Zero or one keeps the classic
	// single controller under the "global" target.
	Replicas int
	// HA tunes the replicated control plane (only read when Replicas > 1).
	HA controlplane.HAConfig
}

// Mesh is a running emulated deployment. Close it when done.
type Mesh struct {
	opts     Options
	nem      *netem.Emulator
	registry *registry
	hosts    *fault.HostMap // URL host -> fault target (nil without Fault)

	servers  []*http.Server
	lns      []net.Listener
	proxies  map[poolID]*dataplane.Proxy
	ccs      map[topology.ClusterID]*controlplane.Cluster
	globals  []*controlplane.Global // one per replica; a single element without Options.Replicas
	gURLs    []string
	ctx      context.Context
	cancel   context.CancelFunc
	stopCtrl chan struct{}
	wg       sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

type poolID struct {
	svc appgraph.ServiceID
	cl  topology.ClusterID
}

// registry is the service-discovery substitute: (service, cluster) →
// sidecar base URL.
type registry struct {
	mu sync.RWMutex
	m  map[poolID]string
}

func (r *registry) Resolve(service string, cluster topology.ClusterID) (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	u, ok := r.m[poolID{appgraph.ServiceID(service), cluster}]
	if !ok {
		return "", fmt.Errorf("emul: no replicas of %s in %s", service, cluster)
	}
	return u, nil
}

func (r *registry) add(id poolID, url string) {
	r.mu.Lock()
	r.m[id] = url
	r.mu.Unlock()
}

// Start builds and starts the mesh: app servers, sidecars, cluster
// controllers, and the global controller, all on loopback listeners.
func Start(opts Options) (*Mesh, error) {
	if opts.Top == nil || opts.App == nil {
		return nil, fmt.Errorf("emul: missing topology or app")
	}
	if err := opts.App.Validate(opts.Top); err != nil {
		return nil, fmt.Errorf("emul: %w", err)
	}
	if opts.TimeScale <= 0 {
		opts.TimeScale = 1
	}
	m := &Mesh{
		opts:     opts,
		nem:      netem.New(opts.Top, opts.NetemScale),
		registry: &registry{m: map[poolID]string{}},
		proxies:  map[poolID]*dataplane.Proxy{},
		ccs:      map[topology.ClusterID]*controlplane.Cluster{},
	}
	// ctx spans the mesh's lifetime: Close cancels it, which aborts any
	// in-flight control-plane RPC instead of waiting out HTTP timeouts.
	m.ctx, m.cancel = context.WithCancel(context.Background())
	if opts.Fault != nil {
		m.hosts = fault.NewHostMap()
	}
	// One RNG stream per sidecar, derived by pool name: derivation is a
	// pure function of (seed, name), so routing draws are reproducible
	// regardless of the map-iteration order pools start in.
	rng := sim.NewRNG(opts.Seed)

	// Global controller(s). With Replicas > 1 each replica is its own
	// fault target and advertises its URL as its lease identity.
	m.globals = make([]*controlplane.Global, max(opts.Replicas, 1))
	for i := range m.globals {
		ctrl, err := core.NewController(opts.Top, opts.App, opts.Controller)
		if err != nil {
			m.Close()
			return nil, err
		}
		g := controlplane.NewGlobal(ctrl)
		m.globals[i] = g
		target := m.globalTarget(i)
		gURL, err := m.serveTarget(g.Handler(), target)
		if err != nil {
			m.Close()
			return nil, err
		}
		if len(m.globals) > 1 {
			g.EnableHA(gURL, opts.HA)
		}
		if opts.Fault != nil {
			g.SetTransport(fault.NewTransport(nil, opts.Fault, target, m.hosts))
		}
		m.gURLs = append(m.gURLs, gURL)
	}

	// Cluster controllers, reporting to (and voting for) every replica.
	for _, cl := range opts.Top.ClusterIDs() {
		cc := controlplane.NewCluster(cl, m.gURLs[0])
		for _, u := range m.gURLs[1:] {
			cc.AddUpstream(u)
		}
		if opts.StaleAfter > 0 {
			cc.SetStaleAfter(opts.StaleAfter)
		}
		if opts.Fault != nil {
			cc.SetTransport(fault.NewTransport(nil, opts.Fault, fault.ClusterTarget(cl), m.hosts))
		}
		ccURL, err := m.serveTarget(cc.Handler(), fault.ClusterTarget(cl))
		if err != nil {
			m.Close()
			return nil, err
		}
		if err := cc.Register(m.ctx, ccURL); err != nil {
			m.Close()
			return nil, err
		}
		m.ccs[cl] = cc
	}

	// Application servers + sidecars, one pool per (service, cluster).
	for sid, svc := range opts.App.Services {
		for cl, pool := range svc.Placement {
			if pool.Replicas <= 0 {
				continue
			}
			id := poolID{sid, cl}
			app := newAppServer(opts.App, sid, cl, pool.Servers(), opts.TimeScale, m.registry)
			appURL, err := m.serve(app)
			if err != nil {
				m.Close()
				return nil, err
			}
			proxy, err := dataplane.New(dataplane.Config{
				Service:    string(sid),
				Cluster:    cl,
				LocalApp:   appURL,
				Resolver:   m.registry,
				Netem:      m.nem,
				RNG:        rng.DeriveNamed(string(sid) + "@" + string(cl)),
				Fallback:   opts.Top.Nearest(cl),
				StaleAfter: opts.StaleAfter,
			})
			if err != nil {
				m.Close()
				return nil, err
			}
			proxyURL, err := m.serveTarget(proxy, fault.ProxyTarget(string(sid), cl))
			if err != nil {
				m.Close()
				return nil, err
			}
			m.registry.add(id, proxyURL)
			m.proxies[id] = proxy
			m.ccs[cl].AddProxy(proxy)
			app.sidecar = proxyURL
		}
	}

	if opts.ControlPeriod > 0 {
		m.stopCtrl = make(chan struct{})
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			t := time.NewTicker(opts.ControlPeriod)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					m.TickControl(opts.ControlPeriod)
				case <-m.stopCtrl:
					return
				}
			}
		}()
	}
	return m, nil
}

// TickControl runs one control-plane round synchronously: every cluster
// controller reports its window, then every live global replica steps
// (campaign, then tick or snapshot-fetch; a plain optimize-and-push tick
// when unreplicated). One cluster's failure does not stop the others —
// during faults the surviving controllers must keep reporting — and a
// crashed replica misses its step, exactly like a dead process misses
// its timer (errors from all of it are joined).
func (m *Mesh) TickControl(window time.Duration) error {
	var errs []error
	for _, cc := range m.ccs {
		if err := cc.Report(m.ctx, window); err != nil {
			errs = append(errs, err)
		}
	}
	live := 0
	for i, g := range m.globals {
		if m.globalDown(i) {
			continue
		}
		live++
		if err := g.HAStep(m.ctx); err != nil {
			errs = append(errs, err)
		}
	}
	if live == 0 {
		errs = append(errs, fmt.Errorf("emul: every global controller down, optimization skipped"))
	}
	return errors.Join(errs...)
}

// globalTarget names replica i for the fault injector: the single
// controller is "global", replicas are "global:0" … "global:N-1".
func (m *Mesh) globalTarget(i int) fault.Target {
	if len(m.globals) == 1 {
		return fault.Global
	}
	return fault.GlobalReplica(i)
}

func (m *Mesh) globalDown(i int) bool {
	return m.opts.Fault != nil && m.opts.Fault.IsDown(m.globalTarget(i))
}

// CrashGlobalReplica / RestartGlobalReplica / CrashCluster /
// RestartCluster drive the fault injector by component; no-ops without
// Options.Fault. The unreplicated controller is replica 0.
func (m *Mesh) CrashGlobalReplica(i int) {
	if m.opts.Fault != nil && i >= 0 && i < len(m.globals) {
		m.opts.Fault.Crash(m.globalTarget(i))
	}
}

// RestartGlobalReplica brings a crashed global replica back.
func (m *Mesh) RestartGlobalReplica(i int) {
	if m.opts.Fault != nil && i >= 0 && i < len(m.globals) {
		m.opts.Fault.Restart(m.globalTarget(i))
	}
}

// CrashCluster takes one cluster controller down.
func (m *Mesh) CrashCluster(cl topology.ClusterID) {
	if m.opts.Fault != nil {
		m.opts.Fault.Crash(fault.ClusterTarget(cl))
	}
}

// RestartCluster brings a crashed cluster controller back.
func (m *Mesh) RestartCluster(cl topology.ClusterID) {
	if m.opts.Fault != nil {
		m.opts.Fault.Restart(fault.ClusterTarget(cl))
	}
}

// SetNow overrides the control plane's clock — every global replica and
// cluster controller reads lease deadlines from it. Experiments advance
// a virtual clock one control period per round so leader-failover
// timing is deterministic regardless of wall-clock speed.
func (m *Mesh) SetNow(now func() time.Time) {
	for _, g := range m.globals {
		g.SetNow(now)
	}
	for _, cc := range m.ccs {
		cc.SetNow(now)
	}
}

// ClusterController exposes a cluster's controller daemon (tests and
// health introspection).
func (m *Mesh) ClusterController(cl topology.ClusterID) *controlplane.Cluster {
	return m.ccs[cl]
}

// FrontendURL returns the frontend sidecar URL in a cluster — where
// user traffic enters.
func (m *Mesh) FrontendURL(cluster topology.ClusterID) (string, error) {
	return m.registry.Resolve(string(m.opts.App.FrontendService()), cluster)
}

// Proxy returns the sidecar for a pool (tests and introspection).
func (m *Mesh) Proxy(svc appgraph.ServiceID, cl topology.ClusterID) *dataplane.Proxy {
	return m.proxies[poolID{svc, cl}]
}

// DrainSpans drains every sidecar's buffered trace spans, sorted by
// (trace, start, span ID) so dumps are deterministic. Feed the result to
// an obs.SpanWriter to export a JSONL trace file.
func (m *Mesh) DrainSpans() []telemetry.Span {
	var out []telemetry.Span
	for _, p := range m.proxies {
		out = append(out, p.DrainSpans()...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.ID < b.ID
	})
	return out
}

// GlobalURL returns the global controller's API base URL (replica 0
// when replicated).
func (m *Mesh) GlobalURL() string { return m.gURLs[0] }

// Globals returns every global-controller replica (one element without
// Options.Replicas).
func (m *Mesh) Globals() []*controlplane.Global { return m.globals }

// GlobalLeader returns the replica currently holding the leader lease,
// or nil when no replica leads (mid-failover, or all crashed).
func (m *Mesh) GlobalLeader() *controlplane.Global {
	for i, g := range m.globals {
		if !m.globalDown(i) && g.IsLeader() {
			return g
		}
	}
	return nil
}

// ClusterStats returns the last telemetry window the cluster controller
// collected (populated by TickControl / the background control loop).
func (m *Mesh) ClusterStats(cluster topology.ClusterID) []telemetry.WindowStats {
	cc, ok := m.ccs[cluster]
	if !ok {
		return nil
	}
	return cc.LastStats()
}

// serveTarget serves h as a named fault target: when the injector marks
// the target down its API answers 503 (the crashed process), and the
// listener's host is registered so fault transports can resolve
// requests to this component. Without Options.Fault it is plain serve.
func (m *Mesh) serveTarget(h http.Handler, t fault.Target) (string, error) {
	if m.opts.Fault != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if m.opts.Fault.IsDown(t) {
				http.Error(w, fmt.Sprintf("emul: %s is down", t), http.StatusServiceUnavailable)
				return
			}
			inner.ServeHTTP(w, r)
		})
	}
	url, err := m.serve(h)
	if err == nil && m.hosts != nil {
		m.hosts.Register(url, t)
	}
	return url, err
}

// serve starts an HTTP server on a fresh loopback listener.
func (m *Mesh) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	m.mu.Lock()
	m.servers = append(m.servers, srv)
	m.lns = append(m.lns, ln)
	m.mu.Unlock()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// Close shuts every server down.
func (m *Mesh) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	servers := m.servers
	m.mu.Unlock()
	if m.stopCtrl != nil {
		close(m.stopCtrl)
	}
	m.cancel() // abort in-flight control-plane RPCs
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for _, s := range servers {
		s.Shutdown(ctx)
	}
	m.wg.Wait()
}

// appServer emulates one service's application instances: it performs
// the call node's busy time (bounded by the pool's concurrency), issues
// child calls through the sidecar, and writes the configured response
// size. The paper's microbenchmark services do file writes; busy-time
// sleep reproduces the same load-to-latency behaviour without hitting
// the disk.
type appServer struct {
	app     *appgraph.App
	service appgraph.ServiceID
	cluster topology.ClusterID
	scale   float64
	reg     *registry
	sidecar string // set after the sidecar starts
	slots   chan struct{}
	client  *http.Client

	// nodes maps "METHOD path" to the call nodes it may execute (one per
	// class).
	nodes map[string][]*appgraph.CallNode

	mReqs *obs.Counter
}

func newAppServer(app *appgraph.App, sid appgraph.ServiceID, cl topology.ClusterID, servers int, scale float64, reg *registry) *appServer {
	s := &appServer{
		app:     app,
		service: sid,
		cluster: cl,
		scale:   scale,
		reg:     reg,
		slots:   make(chan struct{}, servers),
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}},
		nodes:   map[string][]*appgraph.CallNode{},
		mReqs: obs.Default().CounterVec("slate_app_requests_total",
			"Requests executed by emulated application instances.",
			"service", "cluster").With(string(sid), string(cl)),
	}
	for _, class := range app.Classes {
		class.Root.Walk(func(n *appgraph.CallNode) {
			if n.Service == sid {
				key := n.Method + " " + n.Path
				s.nodes[key] = append(s.nodes[key], n)
			}
		})
	}
	return s
}

func (s *appServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	node := s.findNode(r)
	if node == nil {
		http.Error(w, fmt.Sprintf("%s: no endpoint %s %s", s.service, r.Method, r.URL.Path), http.StatusNotFound)
		return
	}
	io.Copy(io.Discard, r.Body)
	s.mReqs.Inc()

	// Busy time occupies one of the pool's concurrency slots.
	s.slots <- struct{}{}
	if d := time.Duration(float64(node.Work.MeanServiceTime) * s.scale); d > 0 {
		time.Sleep(d)
	}
	<-s.slots

	// Child calls go through the sidecar, which applies routing rules.
	if err := s.callChildren(r, node); err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	writeZeros(w, node.Work.ResponseBytes)
}

func (s *appServer) findNode(r *http.Request) *appgraph.CallNode {
	candidates := s.nodes[r.Method+" "+r.URL.Path]
	if len(candidates) == 0 {
		return nil
	}
	return candidates[0]
}

func (s *appServer) callChildren(r *http.Request, node *appgraph.CallNode) error {
	if len(node.Children) == 0 {
		return nil
	}
	call := func(ch *appgraph.CallNode) error {
		for i := 0; i < ch.Count; i++ {
			req, err := http.NewRequestWithContext(r.Context(), ch.Method, s.sidecar+ch.Path, strings.NewReader(strings.Repeat("x", int(min(ch.Work.RequestBytes, 1<<20)))))
			if err != nil {
				return err
			}
			req.Header.Set(dataplane.HeaderOutbound, string(ch.Service))
			req.Header.Set(dataplane.HeaderClass, r.Header.Get(dataplane.HeaderClass))
			req.Header.Set(dataplane.HeaderTraceID, r.Header.Get(dataplane.HeaderTraceID))
			// Propagate the caller's span so the callee's span links to it.
			req.Header.Set(dataplane.HeaderSpanID, r.Header.Get(dataplane.HeaderSpanID))
			resp, err := s.client.Do(req)
			if err != nil {
				return fmt.Errorf("%s -> %s: %w", s.service, ch.Service, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode/100 != 2 {
				return fmt.Errorf("%s -> %s: status %d", s.service, ch.Service, resp.StatusCode)
			}
		}
		return nil
	}
	if node.Parallel {
		errs := make(chan error, len(node.Children))
		for _, ch := range node.Children {
			ch := ch
			go func() { errs <- call(ch) }()
		}
		var first error
		for range node.Children {
			if err := <-errs; err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	for _, ch := range node.Children {
		if err := call(ch); err != nil {
			return err
		}
	}
	return nil
}

func writeZeros(w io.Writer, n int64) {
	const chunk = 32 << 10
	buf := make([]byte, chunk)
	for n > 0 {
		c := int64(chunk)
		if c > n {
			c = n
		}
		if _, err := w.Write(buf[:c]); err != nil {
			return
		}
		n -= c
	}
}

// LoadResult summarizes one driven workload stream.
type LoadResult struct {
	Latencies []time.Duration
	Errors    int
	Sent      int
}

// Mean returns the mean latency of successful requests.
func (l *LoadResult) Mean() time.Duration { return telemetry.MeanOf(l.Latencies) }

// P99 returns the 99th percentile latency.
func (l *LoadResult) P99() time.Duration { return telemetry.QuantileOf(l.Latencies, 0.99) }

// Drive sends an open-loop constant-rate stream of class requests to a
// cluster's frontend for the given duration and collects end-to-end
// latencies. The class header is attached at the ingress, playing the
// role of the edge gateway's classifier.
func (m *Mesh) Drive(ctx context.Context, class string, cluster topology.ClusterID, rps float64, dur time.Duration) (*LoadResult, error) {
	cl := m.opts.App.Class(class)
	if cl == nil {
		return nil, fmt.Errorf("emul: unknown class %q", class)
	}
	feURL, err := m.FrontendURL(cluster)
	if err != nil {
		return nil, err
	}
	if rps <= 0 {
		return nil, fmt.Errorf("emul: non-positive rate")
	}
	interval := time.Duration(float64(time.Second) / rps)
	deadline := time.Now().Add(dur)

	var (
		mu  sync.Mutex
		res LoadResult
		wg  sync.WaitGroup
	)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 256}}
	seq := 0
	for now := time.Now(); now.Before(deadline); now = time.Now() {
		seq++
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, cl.Root.Method, feURL+cl.Root.Path, nil)
			if err != nil {
				return
			}
			req.Header.Set(dataplane.HeaderClass, class)
			req.Header.Set(dataplane.HeaderTraceID, strconv.FormatInt(int64(n), 16))
			start := time.Now()
			resp, err := client.Do(req)
			ok := err == nil
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				ok = resp.StatusCode/100 == 2
			}
			lat := time.Since(start)
			mu.Lock()
			res.Sent++
			if ok {
				res.Latencies = append(res.Latencies, lat)
			} else {
				res.Errors++
			}
			mu.Unlock()
		}(seq)
		select {
		case <-ctx.Done():
			wg.Wait()
			return &res, ctx.Err()
		case <-time.After(interval):
		}
	}
	wg.Wait()
	return &res, nil
}
