package dataplane

// Tests for the data plane's graceful-degradation behaviour: the
// proxy's rule-staleness TTL (fresh rules -> stale-but-held -> local
// fallback).

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/sim"
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
		RNG:        sim.NewRNG(1),
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
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	// The destination echo apps are named b-west and b-east.
	app, _, _ := strings.Cut(string(body), ":")
	return strings.TrimPrefix(app, "b-")
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
