package controlplane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/dataplane"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// TestFullyDistributedDeployment assembles the deployment shape of
// cmd/slate-global + cmd/slate-cluster + cmd/slate-proxy: every
// component only talks HTTP — proxies push telemetry to and poll rules
// from their cluster controller via dataplane.Agent; cluster
// controllers relay to the global controller; the global controller
// optimizes and pushes tables down. No in-process shortcuts.
func TestFullyDistributedDeployment(t *testing.T) {
	top := topology.TwoClusters(40 * time.Millisecond)
	app := chainApp()
	ctrl, err := core.NewController(top, app, core.ControllerConfig{DemandSmoothing: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGlobal(ctrl)
	gsrv := httptest.NewServer(g.Handler())
	defer gsrv.Close()

	type clusterRig struct {
		cc    *Cluster
		ccURL string
	}
	mkCluster := func(id topology.ClusterID) clusterRig {
		cc := NewCluster(id, gsrv.URL)
		srv := httptest.NewServer(cc.Handler())
		t.Cleanup(srv.Close)
		if err := cc.Register(t.Context(), srv.URL); err != nil {
			t.Fatal(err)
		}
		return clusterRig{cc: cc, ccURL: srv.URL}
	}
	west := mkCluster(topology.West)
	east := mkCluster(topology.East)

	// A standalone gateway proxy per cluster, wired only by URL.
	resolver := &memResolver{m: map[string]string{}}
	mkProxy := func(cl topology.ClusterID, ccURL string) (*dataplane.Proxy, *dataplane.Agent) {
		appSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, "ok")
		}))
		t.Cleanup(appSrv.Close)
		p, err := dataplane.New(dataplane.Config{
			Service: "gateway", Cluster: cl, LocalApp: appSrv.URL, Resolver: resolver,
		})
		if err != nil {
			t.Fatal(err)
		}
		psrv := httptest.NewServer(p)
		t.Cleanup(psrv.Close)
		resolver.add("gateway", cl, psrv.URL)
		agent, err := dataplane.NewAgent(p, ccURL, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return p, agent
	}
	pW, aW := mkProxy(topology.West, west.ccURL)
	_, aE := mkProxy(topology.East, east.ccURL)

	// Simulate one telemetry window: the proxies saw overload-shaped
	// traffic (west hot). Inject via the proxies' own aggregation by
	// issuing classified requests — here we shortcut with direct ingest
	// into the cluster controllers only for volume, while the proxies
	// push their genuine (small) telemetry through their agents.
	west.cc.Ingest([]telemetry.WindowStats{{
		Key: telemetry.MetricKey{Service: "gateway", Class: "default", Cluster: string(topology.West)},
		RPS: 900, Requests: 900, MeanLatency: 60 * time.Millisecond, Window: time.Second,
	}})
	east.cc.Ingest([]telemetry.WindowStats{{
		Key: telemetry.MetricKey{Service: "gateway", Class: "default", Cluster: string(topology.East)},
		RPS: 100, Requests: 100, MeanLatency: 20 * time.Millisecond, Window: time.Second,
	}})

	// One control round: agents sync (push + poll), cluster controllers
	// report, global optimizes and pushes down, agents poll the result.
	if err := aW.Sync(t.Context()); err != nil {
		t.Fatalf("west agent: %v", err)
	}
	if err := aE.Sync(t.Context()); err != nil {
		t.Fatalf("east agent: %v", err)
	}
	if err := west.cc.Report(t.Context(), time.Second); err != nil {
		t.Fatal(err)
	}
	if err := east.cc.Report(t.Context(), time.Second); err != nil {
		t.Fatal(err)
	}
	if err := g.Tick(t.Context()); err != nil {
		t.Fatalf("global tick: %v", err)
	}
	if err := aW.Sync(t.Context()); err != nil {
		t.Fatal(err)
	}

	// The west standalone proxy must now hold offload rules, received
	// purely over HTTP.
	if pW.TableVersion() == 0 {
		t.Fatal("west proxy never received rules over the wire")
	}
	d := pW.Table().Lookup("svc-1", "default", topology.West)
	if d.Weight(topology.East) <= 0 {
		t.Errorf("west proxy rule has no offload: %v", d)
	}

	// Global status reflects both clusters and the learned demand.
	resp, err := http.Get(gsrv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := ctrl.Demand()["default"][topology.West]; got < 800 {
		t.Errorf("global demand west = %v, want ~900", got)
	}
}

type memResolver struct {
	mu sync.Mutex
	m  map[string]string
}

func (r *memResolver) add(svc string, cl topology.ClusterID, url string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[svc+"@"+string(cl)] = url
}

func (r *memResolver) Resolve(svc string, cl topology.ClusterID) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if u, ok := r.m[svc+"@"+string(cl)]; ok {
		return u, nil
	}
	return "", fmt.Errorf("no %s@%s", svc, cl)
}

// postRaw posts a JSON body with optional extra headers and returns the
// response (caller closes).
func postRaw(t *testing.T, url string, body []byte, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequestWithContext(t.Context(), http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestDeposedLeaderCannotOverwrite is the compare-and-swap safety test:
// once leadership has moved on, nothing a deposed leader does — a
// version-tagged patch, a "full resync" push, or a legacy headerless
// table POST — may ever move a cluster's table backwards.
func TestDeposedLeaderCannotOverwrite(t *testing.T) {
	clk := newVclock()
	const ttl = 10 * time.Second
	top := topology.TwoClusters(40 * time.Millisecond)
	mkReplica := func() (*Global, string) {
		ctrl, err := core.NewController(top, chainApp(), core.ControllerConfig{DemandSmoothing: 1, Decompose: true})
		if err != nil {
			t.Fatal(err)
		}
		g := NewGlobal(ctrl)
		srv := httptest.NewServer(g.Handler())
		t.Cleanup(srv.Close)
		g.EnableHA(srv.URL, HAConfig{LeaseTTL: ttl, EventThreshold: -1})
		g.SetNow(clk.Now)
		return g, srv.URL
	}
	gA, urlA := mkReplica()
	gB, urlB := mkReplica()

	cc := NewCluster(topology.West, "")
	cc.SetNow(clk.Now)
	cc.AddUpstream(urlA)
	cc.AddUpstream(urlB)
	ccsrv := httptest.NewServer(cc.Handler())
	t.Cleanup(ccsrv.Close)
	if err := cc.Register(t.Context(), ccsrv.URL); err != nil {
		t.Fatal(err)
	}

	report := func(rps float64) {
		t.Helper()
		cc.Ingest([]telemetry.WindowStats{{
			Key:      telemetry.MetricKey{Service: "gateway", Class: "default", Cluster: string(topology.West)},
			RPS:      rps,
			Requests: uint64(rps),
			Window:   time.Second,
		}})
		if err := cc.Report(t.Context(), time.Second); err != nil {
			t.Fatal(err)
		}
	}

	// gA leads at epoch 1 and publishes; gB follows and caches.
	report(900)
	if err := gA.HAStep(t.Context()); err != nil {
		t.Fatalf("gA tick: %v", err)
	}
	if err := gB.HAStep(t.Context()); err != nil {
		t.Fatal(err)
	}
	if !gA.IsLeader() || gB.IsLeader() {
		t.Fatal("want gA leader, gB follower")
	}
	oldTable := cc.Table()
	if oldTable.Version == 0 {
		t.Fatal("gA never published")
	}

	// The lease lapses; gB takes over at epoch 2 under shifted demand and
	// publishes a strictly newer table.
	clk.Advance(ttl + time.Second)
	report(500)
	if err := gB.HAStep(t.Context()); err != nil {
		t.Fatalf("gB takeover tick: %v", err)
	}
	if !gB.IsLeader() {
		t.Fatal("gB did not take over")
	}
	newVersion := cc.Table().Version
	if newVersion <= oldTable.Version {
		t.Fatalf("gB's table version %d not newer than %d", newVersion, oldTable.Version)
	}

	// The deposed gA ticks as if nothing happened: its push carries epoch
	// 1 against a pubEpoch-2 fence and must bounce, leaving the table be.
	if err := gA.Tick(t.Context()); err == nil {
		t.Fatal("deposed gA published successfully")
	}
	if gA.IsLeader() {
		t.Fatal("gA did not step down after the fencing rejection")
	}
	if got := cc.Table().Version; got != newVersion {
		t.Fatalf("deposed push moved the table: %d -> %d", newVersion, got)
	}

	// Even with an acceptable epoch, a FULL resync push carrying an older
	// table version is CAS-rejected — full patches apply unconditionally
	// downstream, so the regression must be stopped at the door.
	stale := routing.FullPatch(oldTable)
	staleJSON, err := json.Marshal(stale)
	if err != nil {
		t.Fatal(err)
	}
	resp := postRaw(t, ccsrv.URL+"/v1/patch", staleJSON, map[string]string{
		dataplane.HeaderLeaderEpoch: "3",
	})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || resp.Header.Get(dataplane.HeaderReject) != dataplane.RejectCAS {
		t.Fatalf("stale full patch: status %d reject %q, want 409 %q",
			resp.StatusCode, resp.Header.Get(dataplane.HeaderReject), dataplane.RejectCAS)
	}

	// A headerless push on a fenced cluster is rejected outright: every
	// legitimate publisher in a replicated deployment states its epoch.
	resp = postRaw(t, ccsrv.URL+"/v1/patch", staleJSON, nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || resp.Header.Get(dataplane.HeaderReject) != dataplane.RejectStaleLeader {
		t.Fatalf("headerless push: status %d reject %q, want 409 %q",
			resp.StatusCode, resp.Header.Get(dataplane.HeaderReject), dataplane.RejectStaleLeader)
	}

	if got := cc.Table().Version; got != newVersion {
		t.Fatalf("stale pushes moved the table: %d -> %d", newVersion, got)
	}
}
