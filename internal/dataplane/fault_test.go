package dataplane

// Tests for the data plane's graceful-degradation behaviour: agent
// retry/backoff, telemetry re-queueing across failed pushes, and the
// proxy's rule-staleness TTL (fresh rules -> stale-but-held -> local
// fallback).

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// fakeClock is a manually advanced clock for TTL tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// noSleep replaces the agent's backoff sleep and records the waits.
func noSleep(rec *[]time.Duration) func(context.Context, time.Duration) error {
	return func(_ context.Context, d time.Duration) error {
		*rec = append(*rec, d)
		return nil
	}
}

// ccServer is a scriptable fake cluster controller.
type ccServer struct {
	mu           sync.Mutex
	metricsCalls int
	failMetrics  int // fail this many /v1/metrics requests with 503
	received     [][]telemetry.WindowStats
	table        *routing.Table
	srv          *httptest.Server
}

func newCCServer(t *testing.T, table *routing.Table) *ccServer {
	t.Helper()
	cc := &ccServer{table: table}
	cc.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/metrics":
			cc.mu.Lock()
			cc.metricsCalls++
			fail := cc.failMetrics > 0
			if fail {
				cc.failMetrics--
			}
			cc.mu.Unlock()
			if fail {
				io.Copy(io.Discard, r.Body)
				http.Error(w, "injected", http.StatusServiceUnavailable)
				return
			}
			var stats []telemetry.WindowStats
			json.NewDecoder(r.Body).Decode(&stats)
			cc.mu.Lock()
			cc.received = append(cc.received, stats)
			cc.mu.Unlock()
			w.WriteHeader(http.StatusAccepted)
		case "/v1/rules":
			cc.mu.Lock()
			tab := cc.table
			cc.mu.Unlock()
			serveRules(w, r, tab)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(cc.srv.Close)
	return cc
}

func (cc *ccServer) calls() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.metricsCalls
}

func (cc *ccServer) lastReceived() []telemetry.WindowStats {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if len(cc.received) == 0 {
		return nil
	}
	return cc.received[len(cc.received)-1]
}

// generateTraffic sends one inbound request through the proxy so a
// telemetry window exists.
func generateTraffic(t *testing.T, srv *httptest.Server) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// TestAgentRequeuesFailedTelemetryWindow is the regression test for
// the telemetry-loss bug: a failed POST /v1/metrics used to discard
// the flushed window. The window must survive to the next round and
// arrive merged into the next successful push.
func TestAgentRequeuesFailedTelemetryWindow(t *testing.T) {
	cc := newCCServer(t, routing.EmptyTable())
	cc.failMetrics = 1

	reg := newRegistry()
	app := echoApp(t, "app")
	p, srv := newProxy(t, "svc", topology.West, app.URL, reg, nil)
	generateTraffic(t, srv)

	agent, err := NewAgent(p, cc.srv.URL, AgentOptions{Period: time.Second, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.Sync(t.Context()); err == nil {
		t.Fatal("first sync should report the failed push")
	}
	if got := len(agent.pending); got != 1 {
		t.Fatalf("pending windows after failed push = %d, want 1", got)
	}

	// Controller is healthy again; no new traffic arrived. The retained
	// window must be delivered now.
	if err := agent.Sync(t.Context()); err != nil {
		t.Fatalf("second sync: %v", err)
	}
	if got := len(agent.pending); got != 0 {
		t.Errorf("pending windows after successful push = %d, want 0", got)
	}
	stats := cc.lastReceived()
	var total uint64
	for _, ws := range stats {
		total += ws.Requests
	}
	if total != 1 {
		t.Errorf("re-delivered window carries %d requests, want the 1 from the failed round (stats: %+v)", total, stats)
	}
}

// TestAgentMergesBacklogAcrossOutage: several windows accumulated
// during an outage arrive as one merged upload when the controller
// returns.
func TestAgentMergesBacklogAcrossOutage(t *testing.T) {
	cc := newCCServer(t, routing.EmptyTable())
	cc.failMetrics = 2

	reg := newRegistry()
	app := echoApp(t, "app")
	p, srv := newProxy(t, "svc", topology.West, app.URL, reg, nil)

	agent, err := NewAgent(p, cc.srv.URL, AgentOptions{Period: time.Second, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		generateTraffic(t, srv)
		if err := agent.Sync(t.Context()); err == nil {
			t.Fatalf("sync %d should fail during outage", round)
		}
	}
	if got := len(agent.pending); got != 2 {
		t.Fatalf("pending windows = %d, want 2", got)
	}
	generateTraffic(t, srv)
	if err := agent.Sync(t.Context()); err != nil {
		t.Fatalf("post-outage sync: %v", err)
	}
	var total uint64
	for _, ws := range cc.lastReceived() {
		total += ws.Requests
	}
	if total != 3 {
		t.Errorf("merged upload carries %d requests, want all 3 from the outage", total)
	}
	if agent.droppedWindows != 0 {
		t.Errorf("dropped windows = %d, want 0", agent.droppedWindows)
	}
}

// TestAgentPendingCapBoundsMemory: an unreachable controller cannot
// grow the backlog without bound; the oldest windows are dropped and
// counted.
func TestAgentPendingCapBoundsMemory(t *testing.T) {
	cc := newCCServer(t, routing.EmptyTable())
	cc.failMetrics = 1 << 30

	reg := newRegistry()
	app := echoApp(t, "app")
	p, srv := newProxy(t, "svc", topology.West, app.URL, reg, nil)

	agent, err := NewAgent(p, cc.srv.URL, AgentOptions{
		Period: time.Second, MaxRetries: -1, MaxPendingWindows: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		generateTraffic(t, srv)
		agent.Sync(t.Context())
	}
	if got := len(agent.pending); got != 2 {
		t.Errorf("pending windows = %d, want cap 2", got)
	}
	if got := agent.droppedWindows; got != 2 {
		t.Errorf("dropped windows = %d, want 2", got)
	}
}

// TestAgentRetriesWithSeededBackoff: transient failures are retried
// within one sync round with exponential, jittered, reproducible
// backoff.
func TestAgentRetriesWithSeededBackoff(t *testing.T) {
	run := func() (int, []time.Duration) {
		cc := newCCServer(t, routing.EmptyTable())
		cc.failMetrics = 2

		reg := newRegistry()
		app := echoApp(t, "app")
		p, srv := newProxy(t, "svc", topology.West, app.URL, reg, nil)
		generateTraffic(t, srv)

		agent, err := NewAgent(p, cc.srv.URL, AgentOptions{
			Period: time.Second, MaxRetries: 2, Seed: 7,
			BackoffBase: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		var waits []time.Duration
		agent.sleep = noSleep(&waits)
		if err := agent.Sync(t.Context()); err != nil {
			t.Fatalf("sync with retries: %v", err)
		}
		return cc.calls(), waits
	}

	calls, waits := run()
	if calls != 3 {
		t.Errorf("metrics attempts = %d, want 3 (1 + 2 retries)", calls)
	}
	if len(waits) != 2 {
		t.Fatalf("backoff waits = %v, want 2", waits)
	}
	// Jitter is [0.5, 1.5)x around 100ms then 200ms.
	if waits[0] < 50*time.Millisecond || waits[0] >= 150*time.Millisecond {
		t.Errorf("first backoff %v outside [50ms, 150ms)", waits[0])
	}
	if waits[1] < 100*time.Millisecond || waits[1] >= 300*time.Millisecond {
		t.Errorf("second backoff %v outside [100ms, 300ms)", waits[1])
	}
	// Same seed -> identical jitter sequence (determinism).
	_, waits2 := run()
	for k := range waits {
		if waits[k] != waits2[k] {
			t.Errorf("backoff %d differs across same-seed runs: %v vs %v", k, waits[k], waits2[k])
		}
	}
}

// newStaleProxy builds a west proxy with a staleness TTL, a fake
// clock, and a table sending 100% of svc-b traffic to east.
func newStaleProxy(t *testing.T, ttl time.Duration) (*Proxy, *httptest.Server, *fakeClock) {
	t.Helper()
	clock := newFakeClock()
	reg := newRegistry()
	appA := echoApp(t, "a")
	// Fake destination sidecars for svc-b in both clusters.
	reg.add("svc-b", topology.West, echoApp(t, "b-west").URL)
	reg.add("svc-b", topology.East, echoApp(t, "b-east").URL)

	p, err := New(Config{
		Service:    "svc-a",
		Cluster:    topology.West,
		LocalApp:   appA.URL,
		Resolver:   reg,
		Seed:       1,
		StaleAfter: ttl,
		Now:        clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p)
	t.Cleanup(srv.Close)
	p.SetTable(routing.NewTable(1, map[routing.Key]routing.Distribution{
		{Service: "svc-b", Class: routing.AnyClass, Cluster: topology.West}: routing.Local(topology.East),
	}))
	return p, srv, clock
}

func routedCluster(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	req, err := http.NewRequestWithContext(t.Context(), http.MethodGet, srv.URL+"/do", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderOutbound, "svc-b")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.Header.Get(HeaderTargetCluster)
}

// TestProxyStaleRulesDegradeToLocalAndRecover covers the degradation
// ladder end to end: remote-weighted rules are served while fresh,
// held through silence up to the TTL, degraded to local past it, and
// restored as soon as the controller answers again.
func TestProxyStaleRulesDegradeToLocalAndRecover(t *testing.T) {
	const ttl = 10 * time.Second
	p, srv, clock := newStaleProxy(t, ttl)

	// Fresh rules: remote-weighted routing applies.
	if got := routedCluster(t, srv); got != string(topology.East) {
		t.Fatalf("fresh rules routed to %q, want east", got)
	}

	// Controller silent, but within TTL: stale-but-held.
	clock.Advance(ttl - time.Second)
	if p.DegradationLevel() == 2 {
		t.Fatal("rules stale before TTL")
	}
	if got := routedCluster(t, srv); got != string(topology.East) {
		t.Fatalf("held rules routed to %q, want east", got)
	}

	// Past the TTL: degrade to local-biased routing.
	clock.Advance(2 * time.Second)
	if p.DegradationLevel() != 2 {
		t.Fatal("rules not stale past TTL")
	}
	if got := routedCluster(t, srv); got != string(topology.West) {
		t.Fatalf("stale rules routed to %q, want local west", got)
	}
	if p.degraded.Load() == 0 {
		t.Error("degraded picks not counted")
	}

	// Controller returns (rule push): remote routing resumes.
	p.SetTable(routing.NewTable(2, map[routing.Key]routing.Distribution{
		{Service: "svc-b", Class: routing.AnyClass, Cluster: topology.West}: routing.Local(topology.East),
	}))
	if p.DegradationLevel() == 2 {
		t.Fatal("rules still stale after push")
	}
	if got := routedCluster(t, srv); got != string(topology.East) {
		t.Fatalf("post-recovery routed to %q, want east", got)
	}
}

// TestAgentPollRefreshesUnchangedTable: a successful poll returning
// the same table version must still restart the staleness TTL — the
// controller answered; the rules are confirmed, not stale.
func TestAgentPollRefreshesUnchangedTable(t *testing.T) {
	const ttl = 10 * time.Second
	clock := newFakeClock()
	reg := newRegistry()
	app := echoApp(t, "app")
	p, err := New(Config{
		Service: "svc", Cluster: topology.West, LocalApp: app.URL,
		Resolver: reg, Seed: 1, StaleAfter: ttl, Now: clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	table := routing.NewTable(5, map[routing.Key]routing.Distribution{
		{Service: "svc-b", Class: routing.AnyClass, Cluster: topology.West}: routing.Local(topology.East),
	})
	cc := newCCServer(t, table)
	agent, err := NewAgent(p, cc.srv.URL, AgentOptions{Period: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// First sync applies version 5 and marks fresh.
	if err := agent.Sync(t.Context()); err != nil {
		t.Fatal(err)
	}
	clock.Advance(ttl + time.Second)
	if p.DegradationLevel() != 2 {
		t.Fatal("rules should be stale after silence")
	}
	// Second sync: same version. Freshness must still be restored.
	if err := agent.Sync(t.Context()); err != nil {
		t.Fatal(err)
	}
	if p.DegradationLevel() == 2 {
		t.Error("successful poll with unchanged version left rules stale")
	}
}

// TestAgentSendsSourceHeader: telemetry uploads carry the proxy
// identity so the cluster controller can track silent proxies.
func TestAgentSendsSourceHeader(t *testing.T) {
	var gotSource string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/metrics" {
			gotSource = r.Header.Get(HeaderSource)
		}
		if r.URL.Path == "/v1/rules" {
			serveRules(w, r, routing.EmptyTable())
			return
		}
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusAccepted)
	}))
	defer srv.Close()

	reg := newRegistry()
	app := echoApp(t, "app")
	p, psrv := newProxy(t, "svc", topology.West, app.URL, reg, nil)
	generateTraffic(t, psrv)
	agent, err := NewAgent(p, srv.URL, AgentOptions{Period: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.Sync(t.Context()); err != nil {
		t.Fatal(err)
	}
	if gotSource != "svc@west" {
		t.Errorf("source header = %q, want svc@west", gotSource)
	}
}
