package controlplane

// Tests for what the cluster controller does with pushed telemetry
// across a sidecar's push outage, and for its health snapshot.

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/dataplane"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock { return &testClock{t: time.Unix(1_700_000_000, 0)} }

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func oneWindow(svc string, reqs uint64) []telemetry.WindowStats {
	return []telemetry.WindowStats{{
		Key:      telemetry.MetricKey{Service: svc, Class: "*", Cluster: "west"},
		Window:   time.Second,
		Requests: reqs,
		RPS:      float64(reqs),
	}}
}

// TestCollectKeepsPushedTelemetry: a batch pushed before a Collect is
// in that Collect's window, and in no later one.
func TestCollectKeepsPushedTelemetry(t *testing.T) {
	cc := NewCluster(topology.West, "")
	cc.Ingest(oneWindow("a", 5))
	merged := cc.Collect(time.Second)
	if len(merged) != 1 || merged[0].Requests != 5 {
		t.Errorf("collected %+v, want the pushed batch's 5 requests", merged)
	}
	if next := cc.Collect(time.Second); len(next) != 0 {
		t.Errorf("the next window holds %+v, want nothing: a batch counts once", next)
	}
}

// TestClusterWindowCarriesTheSidecarsRateAfterOutage: a sidecar doing
// 10 requests a 1 s period pushes through its Agent to a real Cluster,
// which collects every period. Every push of an outage of k periods
// fails; the cluster's first window after it reads the sidecar's
// 10 rps. The windows the outage cost are gone: merged into the current
// one, they would read as (k+1) × 10 rps of current load.
func TestClusterWindowCarriesTheSidecarsRateAfterOutage(t *testing.T) {
	const perPeriod = 10
	for _, outage := range []int{0, 1, 3, 7} {
		t.Run(fmt.Sprintf("outage-%d", outage), func(t *testing.T) {
			cc := NewCluster(topology.West, "")
			rt := handlerRPC{hosts: map[string]http.Handler{"cluster.test": cc.Handler()}, down: map[string]bool{}}
			p, srv := newAgentProxy(t, dataplane.Config{})
			agent, err := NewAgent(p, "http://cluster.test", AgentOptions{Period: time.Second, MaxRetries: -1})
			if err != nil {
				t.Fatal(err)
			}
			agent.rt = rt
			period := func() []telemetry.WindowStats {
				t.Helper()
				for range perPeriod {
					generateTraffic(t, srv)
				}
				if err := agent.Sync(t.Context()); (err != nil) != rt.down["cluster.test"] {
					t.Fatalf("sync: %v, with the cluster down %v", err, rt.down["cluster.test"])
				}
				return cc.Collect(time.Second)
			}
			period()
			rt.down["cluster.test"] = true
			for range outage {
				period()
			}
			rt.down["cluster.test"] = false
			var rps float64
			var reqs uint64
			for _, ws := range period() {
				rps += ws.RPS
				reqs += ws.Requests
			}
			if math.Abs(rps-perPeriod) > 1e-9 || reqs != perPeriod {
				t.Errorf("after a %d-period outage the cluster's window reads %v rps (%d requests), want %d",
					outage, rps, reqs, perPeriod)
			}
		})
	}
}

// TestHealthEndpoint: GET /v1/health serves the cluster, the table
// version it runs and the lease it granted.
func TestHealthEndpoint(t *testing.T) {
	cc := NewCluster(topology.West, "")
	srv := httptest.NewServer(cc.Handler())
	defer srv.Close()

	cc.ApplyTable(routing.NewTable(4, nil))
	body, err := json.Marshal(LeaseRequest{Candidate: "http://g0.invalid", Epoch: 3, TTLMS: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if rec := postLease(cc.Handler(), body); rec.Code != http.StatusOK {
		t.Fatalf("lease: status %d", rec.Code)
	}

	req, err := http.NewRequestWithContext(t.Context(), http.MethodGet, srv.URL+"/v1/health", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	want := Health{Cluster: topology.West, TableVersion: 4, LeaderURL: "http://g0.invalid", LeaderEpoch: 3, PubEpoch: 3}
	if h != want {
		t.Errorf("health = %+v, want %+v", h, want)
	}
}
