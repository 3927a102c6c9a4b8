package controlplane

// Tests for the Agent, the sidecar's end of the cluster-controller
// protocol: telemetry push and rule poll against a fake controller,
// retry/backoff, dropping a window whose push failed, and
// leader-failover resync.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/dataplane"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/sim"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// newAgentProxy starts a west "svc" sidecar, configured by cfg's
// remaining fields, in front of an app that answers "ok".
func newAgentProxy(t *testing.T, cfg dataplane.Config) (*dataplane.Proxy, *httptest.Server) {
	t.Helper()
	app := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	}))
	t.Cleanup(app.Close)
	cfg.Service, cfg.Cluster, cfg.LocalApp, cfg.RNG = "svc", topology.West, app.URL, sim.NewRNG(1)
	cfg.Resolver = &memResolver{m: map[string]string{}}
	p, err := dataplane.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p)
	t.Cleanup(srv.Close)
	return p, srv
}

// serveRules answers GET /v1/rules the way the cluster controller does:
// always a routing.Patch — empty for ?since= the table's version, else
// a full patch (what a poll without a query, or one outside the history
// window, gets).
func serveRules(w http.ResponseWriter, r *http.Request, table *routing.Table) {
	w.Header().Set("Content-Type", "application/json")
	p := routing.FullPatch(table)
	if r.URL.Query().Get("since") == strconv.FormatUint(table.Version, 10) {
		p = routing.MakePatch(table, table)
	}
	body, _ := json.Marshal(p)
	w.Write(body)
}

// TestClusterRulesAnswerIsAPatch: GET /v1/rules has one answer shape, a
// routing.Patch. Without a query, or from a version the history has
// forgotten, it is a full patch, which a proxy on any other table
// installs; from a remembered version it carries the changed rules
// only, and from the current one it is empty.
func TestClusterRulesAnswerIsAPatch(t *testing.T) {
	key := routing.Key{Service: "callee", Class: routing.AnyClass, Cluster: topology.West}
	cc := NewCluster(topology.West, "")
	cc.ApplyTable(routing.NewTable(1, map[routing.Key]routing.Distribution{key: routing.Local(topology.West)}))
	cc.ApplyTable(routing.NewTable(2, map[routing.Key]routing.Distribution{key: routing.Local(topology.East)}))
	srv := httptest.NewServer(cc.Handler())
	defer srv.Close()
	get := func(query string) (*routing.Patch, int) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/rules" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, resp.StatusCode
		}
		var p routing.Patch
		if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
			t.Fatalf("GET /v1/rules%s: %v", query, err)
		}
		return &p, resp.StatusCode
	}
	for _, tc := range []struct {
		query       string
		full, empty bool
	}{
		{query: "", full: true},
		{query: "?since=7", full: true},
		{query: "?since=1"},
		{query: "?since=2", empty: true},
	} {
		p, _ := get(tc.query)
		if p.Version != 2 || p.Full != tc.full || p.Empty() != tc.empty {
			t.Errorf("GET /v1/rules%s: version %d, full %v, empty %v; want 2, %v, %v",
				tc.query, p.Version, p.Full, p.Empty(), tc.full, tc.empty)
		}
	}
	if _, code := get("?since=v1"); code != http.StatusBadRequest {
		t.Errorf("GET /v1/rules?since=v1: status %d, want 400", code)
	}

	// A proxy on an unrelated table lands on the cluster's.
	p, _ := newAgentProxy(t, dataplane.Config{})
	p.SetTable(routing.NewTable(7, nil))
	full, _ := get("")
	if err := p.ApplyPatch(full); err != nil {
		t.Fatal(err)
	}
	if d := p.Table().Lookup("callee", "default", topology.West); p.TableVersion() != 2 || d.Weight(topology.East) < 1 {
		t.Errorf("proxy on v%d routes %v, want v2 all east", p.TableVersion(), d)
	}
}

// TestKeepAliveKeepsRuleHistory: a push that leaves the table as it is,
// the empty keep-alive patch or the same table installed again, does
// not enter the ?since=N history. After any number of them a poller one
// version behind still gets the changed rule only, not a full patch.
func TestKeepAliveKeepsRuleHistory(t *testing.T) {
	key := routing.Key{Service: "callee", Class: routing.AnyClass, Cluster: topology.West}
	v1 := routing.NewTable(1, map[routing.Key]routing.Distribution{key: routing.Local(topology.West)})
	v2 := routing.NewTable(2, map[routing.Key]routing.Distribution{key: routing.Local(topology.East)})
	for _, tc := range []struct {
		name      string
		keepAlive func(*Cluster) error
	}{
		{"patch", func(c *Cluster) error { return c.ApplyPatch(&routing.Patch{FromVersion: 2, Version: 2}) }},
		{"table", func(c *Cluster) error { c.ApplyTable(v2); return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cc := NewCluster(topology.West, "")
			cc.ApplyTable(v1)
			cc.ApplyTable(v2)
			for range tableHistoryCap {
				if err := tc.keepAlive(cc); err != nil {
					t.Fatal(err)
				}
			}
			rec := httptest.NewRecorder()
			cc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/rules?since=1", nil))
			var p routing.Patch
			if err := json.NewDecoder(rec.Body).Decode(&p); err != nil {
				t.Fatal(err)
			}
			if p.Full || p.FromVersion != 1 || p.Version != 2 || len(p.Set) != 1 || len(p.Del) != 0 {
				t.Errorf("after %d keep-alives, GET /v1/rules?since=1 = full %v, v%d → v%d, %d set, %d deleted; want the one changed rule from v1",
					tableHistoryCap, p.Full, p.FromVersion, p.Version, len(p.Set), len(p.Del))
			}
		})
	}
}

func TestAgentSyncPushesTelemetryAndAppliesRules(t *testing.T) {
	// Fake cluster controller: records pushed metrics, serves a table.
	var pushed int
	table := routing.NewTable(9, map[routing.Key]routing.Distribution{
		{Service: "callee", Class: routing.AnyClass, Cluster: topology.West}: routing.Local(topology.East),
	})
	cc := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/metrics":
			pushed++
			io.Copy(io.Discard, r.Body)
			w.WriteHeader(http.StatusAccepted)
		case "/v1/rules":
			serveRules(w, r, table)
		default:
			http.NotFound(w, r)
		}
	}))
	defer cc.Close()

	p, srv := newAgentProxy(t, dataplane.Config{})

	// Generate one request so there is telemetry to push.
	resp, err := http.Get(srv.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	agent, err := NewAgent(p, cc.URL, AgentOptions{Period: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.Sync(t.Context()); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if pushed != 1 {
		t.Errorf("metrics pushes = %d, want 1", pushed)
	}
	if p.TableVersion() != 9 {
		t.Errorf("table version = %d, want 9 (polled)", p.TableVersion())
	}
	// Second sync with no new telemetry: no push, same table (version
	// unchanged -> empty patch, rules only marked fresh).
	if err := agent.Sync(t.Context()); err != nil {
		t.Fatal(err)
	}
	if pushed != 1 {
		t.Errorf("empty window should not push, pushes = %d", pushed)
	}
}

func TestAgentSurvivesControllerOutage(t *testing.T) {
	p, _ := newAgentProxy(t, dataplane.Config{})
	agent, err := NewAgent(p, "http://127.0.0.1:1", AgentOptions{Period: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.Sync(t.Context()); err == nil {
		t.Error("sync against dead controller should error")
	}
	// Run must not crash and must stop on cancel.
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	go func() { agent.Run(ctx); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not stop on cancel")
	}
}

func TestAgentValidation(t *testing.T) {
	if _, err := NewAgent(nil, "http://x", AgentOptions{Period: time.Second}); err == nil {
		t.Error("nil proxy accepted")
	}
	p, _ := newAgentProxy(t, dataplane.Config{})
	if _, err := NewAgent(p, "", AgentOptions{Period: time.Second}); err == nil {
		t.Error("empty URL accepted")
	}
}

// TestAgentZeroOptionsTakeDefaults: the one constructor fills every
// zero option with its documented default, and a negative MaxRetries
// disables retries rather than meaning "default".
func TestAgentZeroOptionsTakeDefaults(t *testing.T) {
	p, _ := newAgentProxy(t, dataplane.Config{})
	agent, err := NewAgent(p, "http://x", AgentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	o := agent.opts
	if o.Period != 5*time.Second || o.MaxRetries != 2 || o.BackoffBase != 100*time.Millisecond {
		t.Errorf("zero options resolved to period=%v retries=%d backoff=%v",
			o.Period, o.MaxRetries, o.BackoffBase)
	}
	// Seed 0 seeds the jitter stream, as any other seed does.
	want := sim.NewRNG(0).DeriveNamed("agent-backoff")
	for i := 0; i < 3; i++ {
		if got, w := agent.jitter.Float64(), want.Float64(); math.Float64bits(got) != math.Float64bits(w) {
			t.Fatalf("jitter draw %d = %v, want %v (the Seed 0 stream)", i, got, w)
		}
	}
	noRetry, err := NewAgent(p, "http://x", AgentOptions{MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := noRetry.opts.MaxRetries; got != 0 {
		t.Errorf("MaxRetries -1 resolved to %d, want 0 (no retries)", got)
	}
}

// TestAgentLeaderFailoverResync: a change in the X-Slate-Leader-Epoch
// header advertised by the cluster controller means the control plane
// elected a new leader. The agent must count the failover and refetch
// the FULL table rather than trust an incremental answer that may have
// raced the leadership change.
func TestAgentLeaderFailoverResync(t *testing.T) {
	tableV5 := routing.NewTable(5, map[routing.Key]routing.Distribution{
		{Service: "callee", Class: routing.AnyClass, Cluster: topology.West}: routing.Local(topology.West),
	})
	tableV6 := routing.NewTable(6, map[routing.Key]routing.Distribution{
		{Service: "callee", Class: routing.AnyClass, Cluster: topology.West}: routing.Local(topology.East),
	})
	var (
		epoch       uint64 = 1
		current            = tableV5
		fullFetches int
	)
	cc := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/metrics":
			io.Copy(io.Discard, r.Body)
			w.WriteHeader(http.StatusAccepted)
		case "/v1/rules":
			w.Header().Set("X-Slate-Leader-Epoch", strconv.FormatUint(epoch, 10))
			if r.URL.Query().Get("since") == "" {
				fullFetches++
			}
			serveRules(w, r, current)
		default:
			http.NotFound(w, r)
		}
	}))
	defer cc.Close()

	p, _ := newAgentProxy(t, dataplane.Config{})
	agent, err := NewAgent(p, cc.URL, AgentOptions{Period: time.Second})
	if err != nil {
		t.Fatal(err)
	}

	// First poll: the agent learns the current epoch — joining an
	// already-elected control plane is not a failover.
	if err := agent.Sync(t.Context()); err != nil {
		t.Fatal(err)
	}
	if p.TableVersion() != 5 {
		t.Fatalf("table version = %d, want 5", p.TableVersion())
	}
	if agent.leaderEpoch != 1 || agent.failovers != 0 {
		t.Fatalf("epoch %d failovers %d, want 1 and 0",
			agent.leaderEpoch, agent.failovers)
	}

	// Steady state under the same leader: no failover, no full fetch.
	if err := agent.Sync(t.Context()); err != nil {
		t.Fatal(err)
	}
	if agent.failovers != 0 || fullFetches != 0 {
		t.Fatalf("failovers %d fullFetches %d after steady poll, want 0 and 0",
			agent.failovers, fullFetches)
	}

	// Leadership moves: epoch bumps and the new leader publishes v6. The
	// next poll must resync in full and land on the new leader's table.
	epoch = 2
	current = tableV6
	if err := agent.Sync(t.Context()); err != nil {
		t.Fatal(err)
	}
	if p.TableVersion() != 6 {
		t.Fatalf("table version = %d, want 6 after failover resync", p.TableVersion())
	}
	if agent.failovers != 1 || agent.leaderEpoch != 2 {
		t.Fatalf("failovers %d epoch %d, want 1 and 2",
			agent.failovers, agent.leaderEpoch)
	}
	if fullFetches != 1 {
		t.Fatalf("full fetches = %d, want exactly 1 (the failover resync)", fullFetches)
	}
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

// TestAgentDropsAWindowItCouldNotPush: a window whose push fails every
// retry of its round is dropped and counted, not carried into the next
// round, whose push carries only the window measured since.
func TestAgentDropsAWindowItCouldNotPush(t *testing.T) {
	cc := newCCServer(t, routing.EmptyTable())
	cc.failMetrics = 3 // the first try and both retries

	p, srv := newAgentProxy(t, dataplane.Config{})
	agent, err := NewAgent(p, cc.srv.URL, AgentOptions{Period: time.Second, MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	var waits []time.Duration
	agent.sleep = noSleep(&waits)
	dropped := agent.mDropped.Value()

	generateTraffic(t, srv)
	if err := agent.Sync(t.Context()); err == nil {
		t.Fatal("sync should report the failed push")
	}
	if got := cc.calls(); got != 3 {
		t.Fatalf("metrics attempts = %d, want 3 (1 + 2 retries)", got)
	}
	if got := agent.mDropped.Value() - dropped; got != 1 {
		t.Errorf("dropped windows rose by %d, want 1", got)
	}

	generateTraffic(t, srv)
	generateTraffic(t, srv)
	if err := agent.Sync(t.Context()); err != nil {
		t.Fatalf("sync after the outage: %v", err)
	}
	var total uint64
	for _, ws := range cc.lastReceived() {
		total += ws.Requests
	}
	if total != 2 {
		t.Errorf("push after the outage carries %d requests, want the new window's 2", total)
	}
	if got := agent.mDropped.Value() - dropped; got != 1 {
		t.Errorf("dropped windows rose by %d after a successful push, want still 1", got)
	}
}

// TestAgentRetriesWithSeededBackoff: transient failures are retried
// within one sync round with exponential, jittered, reproducible
// backoff.
func TestAgentRetriesWithSeededBackoff(t *testing.T) {
	run := func() (int, []time.Duration) {
		cc := newCCServer(t, routing.EmptyTable())
		cc.failMetrics = 2

		p, srv := newAgentProxy(t, dataplane.Config{})
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

// TestAgentPollRefreshesUnchangedTable: a successful poll returning
// the same table version must still restart the staleness TTL — the
// controller answered; the rules are confirmed, not stale.
func TestAgentPollRefreshesUnchangedTable(t *testing.T) {
	const ttl = 10 * time.Second
	clock := newTestClock()
	p, _ := newAgentProxy(t, dataplane.Config{StaleAfter: ttl, Now: clock.Now})
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
