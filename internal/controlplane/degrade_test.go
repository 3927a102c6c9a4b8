package controlplane

// Tests for the cluster controller's graceful-degradation behaviour:
// tracking silent proxies and excluding stale pushed telemetry from
// the global snapshot.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/dataplane"
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

func TestCollectExcludesStaleIngestedWindows(t *testing.T) {
	clock := newTestClock()
	cc := NewCluster(topology.West, "")
	cc.now = clock.Now
	cc.SetStaleAfter(10 * time.Second)

	cc.IngestFrom("old@west", oneWindow("old", 5))
	clock.Advance(30 * time.Second)
	cc.IngestFrom("new@west", oneWindow("new", 3))

	merged := cc.Collect(time.Second)
	for _, ws := range merged {
		if ws.Key.Service == "old" {
			t.Errorf("stale batch leaked into the snapshot: %+v", ws)
		}
	}
	var seen bool
	for _, ws := range merged {
		if ws.Key.Service == "new" && ws.Requests == 3 {
			seen = true
		}
	}
	if !seen {
		t.Errorf("fresh batch missing from snapshot: %+v", merged)
	}
	if got := cc.health().ExcludedStale; got != 1 {
		t.Errorf("excluded windows = %d, want 1", got)
	}
}

func TestCollectKeepsEverythingWithoutStaleBound(t *testing.T) {
	clock := newTestClock()
	cc := NewCluster(topology.West, "")
	cc.now = clock.Now

	cc.IngestFrom("a@west", oneWindow("a", 5))
	clock.Advance(time.Hour)
	merged := cc.Collect(time.Second)
	if len(merged) != 1 || merged[0].Requests != 5 {
		t.Errorf("unbounded controller dropped telemetry: %+v", merged)
	}
	if len(cc.health().MissingProxies) != 0 {
		t.Error("missing proxies reported with staleness disabled")
	}
}

func TestMissingProxiesMarkedAndRecovered(t *testing.T) {
	clock := newTestClock()
	cc := NewCluster(topology.West, "")
	cc.now = clock.Now
	cc.SetStaleAfter(10 * time.Second)

	cc.IngestFrom("alive@west", oneWindow("alive", 1))
	cc.IngestFrom("silent@west", oneWindow("silent", 1))
	cc.Collect(time.Second)
	if got := cc.health().MissingProxies; len(got) != 0 {
		t.Fatalf("missing = %v right after both reported", got)
	}

	// Only one proxy keeps reporting.
	clock.Advance(15 * time.Second)
	cc.IngestFrom("alive@west", oneWindow("alive", 1))
	cc.Collect(time.Second)
	if got := cc.health().MissingProxies; len(got) != 1 || got[0] != "silent@west" {
		t.Fatalf("missing = %v, want [silent@west]", got)
	}

	// The silent proxy returns.
	cc.IngestFrom("silent@west", oneWindow("silent", 1))
	cc.Collect(time.Second)
	if got := cc.health().MissingProxies; len(got) != 0 {
		t.Fatalf("missing = %v after recovery, want none", got)
	}
}

func TestHandleMetricsRecordsSourceHeader(t *testing.T) {
	clock := newTestClock()
	cc := NewCluster(topology.West, "")
	cc.now = clock.Now
	cc.SetStaleAfter(10 * time.Second)
	srv := httptest.NewServer(cc.Handler())
	defer srv.Close()

	body, _ := json.Marshal(oneWindow("svc", 2))
	req, err := http.NewRequestWithContext(t.Context(), http.MethodPost, srv.URL+"/v1/metrics", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(dataplane.HeaderSource, "svc@west")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d", resp.StatusCode)
	}

	clock.Advance(15 * time.Second)
	cc.Collect(time.Second)
	if got := cc.health().MissingProxies; len(got) != 1 || got[0] != "svc@west" {
		t.Errorf("missing = %v, want [svc@west]; source header not recorded", got)
	}
}

func TestHealthEndpoint(t *testing.T) {
	clock := newTestClock()
	cc := NewCluster(topology.West, "")
	cc.now = clock.Now
	cc.SetStaleAfter(10 * time.Second)
	srv := httptest.NewServer(cc.Handler())
	defer srv.Close()

	cc.IngestFrom("gone@west", oneWindow("gone", 1))
	clock.Advance(20 * time.Second)
	cc.Collect(time.Second)

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
	if h.Cluster != topology.West {
		t.Errorf("health cluster = %q", h.Cluster)
	}
	if len(h.MissingProxies) != 1 || !strings.HasPrefix(h.MissingProxies[0], "gone@") {
		t.Errorf("health missing = %v", h.MissingProxies)
	}
	if h.ExcludedStale != 1 {
		t.Errorf("health excluded = %d, want 1", h.ExcludedStale)
	}
}

// TestHealthSnapshotOwnsItsSlices: health copies the missing list out
// under the lock, so a caller that writes to its copy leaves the
// controller's list alone.
func TestHealthSnapshotOwnsItsSlices(t *testing.T) {
	clock := newTestClock()
	cc := NewCluster(topology.West, "")
	cc.now = clock.Now
	cc.SetStaleAfter(10 * time.Second)
	cc.IngestFrom("gone@west", oneWindow("gone", 1))
	clock.Advance(20 * time.Second)
	cc.Collect(time.Second)

	h := cc.health()
	if len(h.MissingProxies) != 1 || !strings.HasPrefix(h.MissingProxies[0], "gone@") {
		t.Fatalf("health missing = %v, want the one silent proxy", h.MissingProxies)
	}
	h.MissingProxies[0] = "scribbled"
	if got := cc.health().MissingProxies; len(got) != 1 || !strings.HasPrefix(got[0], "gone@") {
		t.Errorf("after a caller wrote to its snapshot, health missing = %v", got)
	}
}
