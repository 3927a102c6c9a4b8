// Package dataplane implements the SLATE-proxy: the per-instance
// sidecar of SLATE's data plane (paper §3.1). It has exactly the two
// jobs the paper gives it: (1) telemetry — per-request load, latency,
// trace spans and traffic classes reported upstream — and (2) request
// routing policy enforcement — picking a destination cluster per
// request, per traffic class, from the rules the Global Controller
// pushed. The routing hot path is a table lookup plus one uniform draw.
//
// Deployment shape: each application instance gets one Proxy. Inbound
// requests (from remote proxies or the ingress) pass through ServeHTTP
// to the local application. The application makes its own outbound
// calls back through the proxy (header X-Slate-Outbound names the
// target service), which applies routing rules and cross-cluster netem
// delay — the loopback analogue of an Envoy sidecar pair.
package dataplane

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/servicelayernetworking/slate/internal/classifier"
	"github.com/servicelayernetworking/slate/internal/netem"
	"github.com/servicelayernetworking/slate/internal/obs"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/sim"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// Wire headers. X-Slate-Outbound marks a request from the local app to
// the sidecar; the rest propagate trace and class context, mirroring
// how Envoy/Istio propagate b3/w3c trace headers.
const (
	HeaderOutbound      = "X-Slate-Outbound"       // target service name
	HeaderClass         = "X-Slate-Class"          // traffic class
	HeaderTraceID       = "X-Slate-Trace-Id"       // trace correlation
	HeaderSpanID        = "X-Slate-Span-Id"        // caller span
	HeaderSourceCluster = "X-Slate-Source-Cluster" // where the caller ran
	HeaderTargetCluster = "X-Slate-Target-Cluster" // routing decision
)

// Resolver maps a (service, cluster) replica pool to a base URL the
// proxy can dial. The emulation runtime registers every sidecar here —
// the stand-in for service-mesh service discovery.
type Resolver interface {
	Resolve(service string, cluster topology.ClusterID) (string, error)
}

// ResolverFunc adapts a function to Resolver.
type ResolverFunc func(service string, cluster topology.ClusterID) (string, error)

// Resolve implements Resolver.
func (f ResolverFunc) Resolve(service string, cluster topology.ClusterID) (string, error) {
	return f(service, cluster)
}

// Config assembles a Proxy.
type Config struct {
	// Service is the application service this sidecar fronts.
	Service string
	// Cluster is the cluster the instance runs in. (The paper notes
	// instances don't know their cluster — the cluster controller tags
	// metrics; in this implementation the emulation runtime injects the
	// cluster ID at sidecar construction, which is equivalent.)
	Cluster topology.ClusterID
	// LocalApp is the base URL of the application instance.
	LocalApp string
	// Resolver locates peer sidecars.
	Resolver Resolver
	// Netem injects cross-cluster delay; nil disables.
	Netem *netem.Emulator
	// Transport carries every forwarded request, to the local app and to
	// peer sidecars; nil uses a pooled http.Transport. Tests substitute
	// it.
	Transport http.RoundTripper //slate:nolint testonly -- transport seam: TestPassAllocations counts a pass's allocations over a canned transport
	// RNG is the stream for routing picks and span IDs, typically
	// derived from the scenario seed (sim.NewRNG(seed).DeriveNamed(...))
	// so every sidecar draws an independent, reproducible stream. Nil
	// falls back to a stream seeded with Seed.
	RNG *sim.RNG
	// Seed makes routing picks reproducible when RNG is nil.
	Seed int64
	// Fallback lists clusters to try, in order (typically nearest
	// first), when the routed cluster has no replicas of the target
	// service — the locality-failover behaviour of today's meshes
	// (paper §2), which also covers partially replicated services.
	Fallback []topology.ClusterID
	// StaleAfter bounds rule staleness: when no rule push or
	// successful poll has confirmed the table within this TTL, the
	// proxy degrades to local-biased routing (100% local, with the
	// usual locality failover) until the control plane answers again —
	// the paper's "do no harm when the controller is blind" behaviour.
	// Zero disables the bound: stale rules are held forever.
	StaleAfter time.Duration
	// Now overrides the clock (tests); nil uses time.Now.
	Now func() time.Time //slate:nolint testonly -- clock seam: the staleness tests drive rule age from a virtual clock
	// Metrics is the registry this proxy instruments into; nil uses
	// obs.Default(). Series are disambiguated by {service,cluster}
	// labels, so many proxies can share one registry (and one process
	// exposition endpoint).
	Metrics *obs.Registry
}

// Proxy is one SLATE-proxy instance. Safe for concurrent use.
type Proxy struct {
	service string
	cluster topology.ClusterID
	local   string
	resolve Resolver
	nem     *netem.Emulator
	cls     *classifier.Classifier // ingress classes: service + method + templated path
	agg     *telemetry.Aggregator

	table    atomic.Pointer[routing.Table]
	patchMu  sync.Mutex // serializes read-modify-write patch applications
	fallback []topology.ClusterID

	staleAfter time.Duration
	now        func() time.Time
	born       time.Time    // now() at New: rule ages are offsets from it
	lastFresh  atomic.Int64 // born to the last rule confirmation, in nanoseconds
	degraded   atomic.Uint64

	mu  sync.Mutex
	rng *sim.RNG

	transport http.RoundTripper

	spanMu   sync.Mutex
	spans    []telemetry.Span
	interned map[string]string // span method, path and class strings; at most internCap

	// Metric handles, resolved once at construction so the per-request
	// increments are single atomic ops (no map lookups on unlabeled
	// series; the routed vec's warm lookups are allocation-free).
	metricsH     http.Handler
	mInbound     *obs.Counter
	mRouted      *obs.CounterVec
	mDegraded    *obs.Counter
	mDegradLevel *obs.Gauge
	mFailovers   *obs.Counter
	mUpstreamErr *obs.Counter
	mInboundDur  *obs.Histogram
}

// New builds a Proxy.
func New(cfg Config) (*Proxy, error) {
	if cfg.Service == "" || cfg.Cluster == "" {
		return nil, fmt.Errorf("dataplane: config missing service or cluster")
	}
	if cfg.Resolver == nil {
		return nil, fmt.Errorf("dataplane: config missing resolver")
	}
	tr := cfg.Transport
	if tr == nil {
		tr = &http.Transport{MaxIdleConnsPerHost: 64}
	}
	rng := cfg.RNG
	if rng == nil {
		rng = sim.NewRNG(cfg.Seed)
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	p := &Proxy{
		service:    cfg.Service,
		cluster:    cfg.Cluster,
		fallback:   cfg.Fallback,
		local:      cfg.LocalApp,
		resolve:    cfg.Resolver,
		nem:        cfg.Netem,
		cls:        classifier.New(classifier.Options{MinSamples: 1, TemplatePaths: true}),
		agg:        telemetry.NewAggregator(),
		rng:        rng,
		transport:  tr,
		interned:   map[string]string{},
		staleAfter: cfg.StaleAfter,
		now:        now,
		born:       now(),
	}
	p.table.Store(routing.EmptyTable())

	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	svc, cl := p.service, string(p.cluster)
	p.metricsH = reg.Handler()
	p.mInbound = reg.CounterVec("slate_proxy_inbound_requests_total",
		"Inbound requests forwarded to the local application.",
		"service", "cluster").With(svc, cl)
	p.mRouted = reg.CounterVec("slate_proxy_routed_requests_total",
		"Outbound requests routed, by traffic class and destination cluster.",
		"service", "cluster", "class", "target")
	p.mDegraded = reg.CounterVec("slate_proxy_degraded_picks_total",
		"Routing decisions made in degraded (local-biased) mode.",
		"service", "cluster").With(svc, cl)
	p.mDegradLevel = reg.GaugeVec("slate_proxy_degradation_level",
		"Degradation ladder level: 0 fresh, 1 stale-but-held, 2 local fallback.",
		"service", "cluster").With(svc, cl)
	p.mFailovers = reg.CounterVec("slate_proxy_resolve_failovers_total",
		"Outbound calls rescued by locality failover after a resolve miss.",
		"service", "cluster").With(svc, cl)
	p.mUpstreamErr = reg.CounterVec("slate_proxy_upstream_errors_total",
		"Outbound calls that failed at the upstream sidecar or local app.",
		"service", "cluster").With(svc, cl)
	p.mInboundDur = reg.HistogramVec("slate_proxy_inbound_seconds",
		"Sojourn time of inbound requests through the local application.",
		nil, "service", "cluster").With(svc, cl)
	return p, nil
}

// DegradationLevel reports where the proxy sits on the degradation
// ladder right now: 0 — rules fresh; 1 — rules past half the staleness
// TTL but still trusted (stale-but-held); 2 — TTL expired, routing has
// fallen back to local-biased distributions.
func (p *Proxy) DegradationLevel() int {
	if p.staleAfter <= 0 {
		return 0
	}
	age := p.RulesAge()
	switch {
	case age > p.staleAfter:
		return 2
	case age > p.staleAfter/2:
		return 1
	}
	return 0
}

// SetTable atomically swaps the routing rules (pushed by the cluster
// controller) and marks them fresh.
func (p *Proxy) SetTable(t *routing.Table) {
	if t == nil {
		t = routing.EmptyTable()
	}
	p.table.Store(t)
	p.MarkRulesFresh()
}

// ApplyPatch applies an incremental rule update atomically: the next
// table is derived from the current one plus the patch, and swapped in
// only if the patch's base version matches (routing.ErrVersionGap
// otherwise, which callers answer with a full resync). Applications are
// serialized so two concurrent patches cannot both derive from the same
// base and silently drop one another's rules.
func (p *Proxy) ApplyPatch(patch *routing.Patch) error {
	p.patchMu.Lock()
	defer p.patchMu.Unlock()
	next, err := p.table.Load().Apply(patch)
	if err != nil {
		return err
	}
	p.table.Store(next)
	p.MarkRulesFresh()
	return nil
}

// MarkRulesFresh restarts the staleness TTL: the control plane
// confirmed the current table (a rule push, or a poll that returned an
// unchanged version — freshness means "the controller answered", not
// "the rules changed").
func (p *Proxy) MarkRulesFresh() {
	p.lastFresh.Store(int64(p.now().Sub(p.born)))
}

// RulesAge returns how long ago the control plane last confirmed the
// routing table. Both ends are offsets from one reading taken at New, so
// with time.Now they are monotonic: a wall-clock step neither ages nor
// refreshes the rules.
func (p *Proxy) RulesAge() time.Duration {
	return p.now().Sub(p.born) - time.Duration(p.lastFresh.Load())
}

// Table returns the active routing table.
func (p *Proxy) Table() *routing.Table { return p.table.Load() }

// TableVersion returns the active table's version.
func (p *Proxy) TableVersion() uint64 { return p.table.Load().Version }

// FlushTelemetry returns and resets this proxy's window stats (pulled
// by the cluster controller).
func (p *Proxy) FlushTelemetry(window time.Duration) []telemetry.WindowStats {
	return p.agg.Flush(window)
}

// DrainSpans returns and clears the buffered trace spans.
func (p *Proxy) DrainSpans() []telemetry.Span {
	p.spanMu.Lock()
	defer p.spanMu.Unlock()
	out := p.spans
	p.spans = nil
	return out
}

// Cluster returns the proxy's cluster.
func (p *Proxy) Cluster() topology.ClusterID { return p.cluster }

// Service returns the proxied service name.
func (p *Proxy) Service() string { return p.service }

// ServeHTTP dispatches inbound vs outbound traffic. GET /metrics/prom
// (without an outbound header) is answered by the sidecar itself with
// the registry's Prometheus exposition, so every proxy is scrapeable on
// the port it already listens on.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if target := r.Header.Get(HeaderOutbound); target != "" {
		p.serveOutbound(w, r, target)
		return
	}
	if r.Method == http.MethodGet && r.URL.Path == obs.MetricsPath {
		p.metricsH.ServeHTTP(w, r)
		return
	}
	p.serveInbound(w, r)
}

// serveInbound forwards a request to the local application instance and
// records its sojourn telemetry and span. Trace context: the incoming
// X-Slate-Span-Id is this span's parent; a fresh span ID is minted and
// handed to the application, which propagates it on its outbound calls
// so the next hop's span links back here (the b3-style propagation of
// Envoy/Istio).
func (p *Proxy) serveInbound(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	class := r.Header.Get(HeaderClass)
	if class == "" {
		// Ingress traffic: classify here (paper §3.3: service, HTTP
		// method, HTTP path).
		p.cls.Observe(p.service, r.Method, r.URL.Path)
		class = p.cls.Classify(p.service, r.Method, r.URL.Path)
	}
	traceID := r.Header.Get(HeaderTraceID)
	if traceID == "" {
		traceID = strconv.FormatUint(p.newSpanID(), 16)
	}
	parentID, _ := strconv.ParseUint(r.Header.Get(HeaderSpanID), 16, 64)
	selfID := p.newSpanID()

	// The local app must know its own cluster context to route its
	// outbound calls; inject it beside the class and trace context.
	slate := []string{class, traceID, strconv.FormatUint(selfID, 16), string(p.cluster)}
	h := forwardHeader(r.Header)
	h[HeaderClass] = slate[0:1:1]
	h[HeaderTraceID] = slate[1:2:2]
	h[HeaderSpanID] = slate[2:3:3]
	h[HeaderSourceCluster] = slate[3:4:4]

	resp, err := p.roundTrip(r, p.local, h)
	if err != nil {
		p.mUpstreamErr.Inc()
		http.Error(w, "slate-proxy: local app: "+err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	copyEndToEnd(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	written, _ := io.Copy(w, resp.Body)

	sojourn := time.Since(start)
	p.mInbound.Inc()
	p.mInboundDur.Observe(sojourn.Seconds())
	p.agg.Record(telemetry.MetricKey{
		Service: p.service,
		Class:   class,
		Cluster: string(p.cluster),
	}, sojourn, 0)
	p.recordSpan(r, class, traceID, selfID, parentID, start, sojourn, written)
}

// serveOutbound routes an application's outbound call: classify, pick a
// destination cluster from the routing rules, inject network delay, and
// forward to the destination sidecar.
func (p *Proxy) serveOutbound(w http.ResponseWriter, r *http.Request, targetService string) {
	class := r.Header.Get(HeaderClass)
	if class == "" {
		class = classifier.Fallback
	}
	// Degradation ladder (DESIGN.md): fresh rules are applied as
	// pushed; a table past its freshness TTL is distrusted and the
	// proxy falls back to local-biased routing — when the controller is
	// blind, stale cross-cluster weights may point at overloaded or
	// unreachable pools, so "do no harm" means keeping traffic local.
	var dist routing.Distribution
	level := p.DegradationLevel()
	p.mDegradLevel.Set(float64(level))
	if level == 2 {
		p.degraded.Add(1)
		p.mDegraded.Inc()
		dist = routing.Local(p.cluster)
	} else {
		dist = p.table.Load().Lookup(targetService, class, p.cluster)
	}
	p.mu.Lock()
	u := p.rng.Float64()
	p.mu.Unlock()
	dst := dist.Pick(u)
	if dst == "" {
		dst = p.cluster
	}

	base, err := p.resolve.Resolve(targetService, dst)
	if err != nil {
		// The rule may point at a cluster with no replicas (stale rule,
		// decommissioned pool, partial replication). Locality failover:
		// try local, then the configured fallback order.
		candidates := append([]topology.ClusterID{p.cluster}, p.fallback...)
		for _, c := range candidates {
			if c == dst {
				continue
			}
			if b2, err2 := p.resolve.Resolve(targetService, c); err2 == nil {
				base, dst, err = b2, c, nil
				p.mFailovers.Inc()
				break
			}
		}
		if err != nil {
			p.mUpstreamErr.Inc()
			http.Error(w, "slate-proxy: resolve "+targetService+": "+err.Error(), http.StatusServiceUnavailable)
			return
		}
	}

	ctx := r.Context()
	crossed := dst != p.cluster
	if crossed && p.nem != nil {
		if err := p.nem.Sleep(ctx, p.cluster, dst); err != nil {
			http.Error(w, "slate-proxy: canceled", http.StatusGatewayTimeout)
			return
		}
	}

	slate := []string{class, string(dst), string(p.cluster), ""}
	h := forwardHeader(r.Header)
	delete(h, HeaderOutbound) // consumed here
	h[HeaderClass] = slate[0:1:1]
	h[HeaderTargetCluster] = slate[1:2:2]
	h[HeaderSourceCluster] = slate[2:3:3]
	// X-Slate-Trace-Id/Span-Id pass through unchanged: the caller's
	// inbound pass minted them and the destination sidecar will link
	// its span to them.
	if h.Get(HeaderTraceID) == "" {
		slate[3] = strconv.FormatUint(p.newSpanID(), 16)
		h[HeaderTraceID] = slate[3:4:4]
	}

	resp, err := p.roundTrip(r, base, h)
	if err != nil {
		p.mUpstreamErr.Inc()
		http.Error(w, "slate-proxy: upstream "+targetService+": "+err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	p.mRouted.With(p.service, string(p.cluster), class, string(dst)).Inc()

	if crossed && p.nem != nil {
		// Response path delay.
		if err := p.nem.Sleep(ctx, dst, p.cluster); err != nil {
			http.Error(w, "slate-proxy: canceled", http.StatusGatewayTimeout)
			return
		}
	}
	wh := w.Header()
	copyEndToEnd(wh, resp.Header)
	wh[HeaderTargetCluster] = slate[1:2:2]
	w.WriteHeader(resp.StatusCode)
	written, _ := io.Copy(w, resp.Body)

	if crossed {
		egress := written + r.ContentLength
		if r.ContentLength < 0 {
			egress = written
		}
		p.agg.Record(telemetry.MetricKey{
			Service: "__egress__",
			Class:   class,
			Cluster: string(p.cluster),
		}, 0, egress)
	}
}

// newSpanID mints a non-zero 64-bit span ID unique across proxies with
// overwhelming probability (zero is reserved for "no parent").
func (p *Proxy) newSpanID() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		id := uint64(p.rng.Int63())<<1 ^ uint64(p.rng.Int63())
		if id != 0 {
			return id
		}
	}
}

func (p *Proxy) recordSpan(r *http.Request, class, traceID string, selfID, parentID uint64, start time.Time, dur time.Duration, respBytes int64) {
	trace, _ := strconv.ParseUint(traceID, 16, 64)
	span := telemetry.Span{
		Trace:     telemetry.TraceID(trace),
		ID:        telemetry.SpanID(selfID),
		Parent:    telemetry.SpanID(parentID),
		Service:   p.service,
		Cluster:   string(p.cluster),
		Start:     time.Duration(start.UnixNano()),
		End:       time.Duration(start.Add(dur).UnixNano()),
		ReqBytes:  max(r.ContentLength, 0),
		RespBytes: respBytes,
		Remote:    r.Header.Get(HeaderSourceCluster) != "" && r.Header.Get(HeaderSourceCluster) != string(p.cluster),
	}
	p.spanMu.Lock()
	span.Class = p.internLocked(class)
	span.Method = p.internLocked(r.Method)
	span.Path = p.internLocked(r.URL.Path)
	p.spans = append(p.spans, span)
	p.spanMu.Unlock()
}

// internCap bounds a proxy's table of span strings. Buffered spans live
// until the next drain; interned, they share one copy of each method,
// path and class instead of pinning every request's request line and
// header values. Strings past the cap (say, paths with ids in them) are
// copied to their own size.
const internCap = 256

func (p *Proxy) internLocked(s string) string {
	if v, ok := p.interned[s]; ok {
		return v
	}
	v := strings.Clone(s)
	if len(p.interned) < internCap {
		p.interned[v] = v
	}
	return v
}

// roundTrip forwards r to base with header h the way
// httputil.ReverseProxy does: straight through the transport, so a
// redirect or any other answer goes back to the caller as it came, and
// with the body's declared length kept — no body when it is empty,
// chunked only when its length is unknown.
func (p *Proxy) roundTrip(r *http.Request, base string, h http.Header) (*http.Response, error) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, base+r.URL.RequestURI(), nil)
	if err != nil {
		return nil, err
	}
	req.Header = h
	if r.ContentLength != 0 {
		req.Body, req.ContentLength = r.Body, r.ContentLength
	}
	return p.transport.RoundTrip(req)
}

// forwardHeader returns the header of a forwarded request: src's
// end-to-end fields. Content-Length stays behind: the transport frames
// the body from Request.ContentLength. The map is sized for src alone:
// the X-Slate fields a pass sets mostly replace fields src already
// carries, and a map sized for at most eight fields is one group where a
// larger size hint would lay out a full table.
func forwardHeader(src http.Header) http.Header {
	h := make(http.Header, len(src))
	copyEndToEnd(h, src)
	delete(h, "Content-Length")
	return h
}

// copyEndToEnd sets in dst every field of src that travels past this
// hop. The value slices are src's own, not copies: a forwarded header is
// only read, and a field the proxy sets replaces its slice whole. The
// RFC 7230 §6.1 hop-by-hop fields, and any field Connection names,
// describe one connection and stay behind — a client's "Connection:
// close" must not close the proxy's pooled upstream connection.
func copyEndToEnd(dst, src http.Header) {
	for k, vs := range src {
		switch k {
		case "Connection", "Proxy-Connection", "Keep-Alive", "Proxy-Authenticate",
			"Proxy-Authorization", "Te", "Trailer", "Transfer-Encoding", "Upgrade":
			continue
		}
		dst[k] = vs
	}
	for _, v := range src["Connection"] {
		for name := range strings.SplitSeq(v, ",") {
			if name = strings.TrimSpace(name); name != "" {
				delete(dst, http.CanonicalHeaderKey(name))
			}
		}
	}
}
