package controlplane

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/dataplane"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

func chainApp() *appgraph.App {
	return appgraph.LinearChain(appgraph.ChainOptions{
		Services:        3,
		MeanServiceTime: 10 * time.Millisecond,
		Pool:            appgraph.ReplicaPool{Replicas: 2, Concurrency: 4},
		Clusters:        []topology.ClusterID{topology.West, topology.East},
	})
}

func newGlobalServer(t *testing.T) (*Global, *httptest.Server) {
	t.Helper()
	top := topology.TwoClusters(40 * time.Millisecond)
	ctrl, err := core.NewController(top, chainApp(), core.ControllerConfig{DemandSmoothing: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGlobal(ctrl)
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(srv.Close)
	return g, srv
}

func postJSONReq(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func feStats(west, east float64) []telemetry.WindowStats {
	return []telemetry.WindowStats{
		{Key: telemetry.MetricKey{Service: "gateway", Class: "default", Cluster: string(topology.West)},
			RPS: west, Requests: uint64(west), MeanLatency: 30 * time.Millisecond},
		{Key: telemetry.MetricKey{Service: "gateway", Class: "default", Cluster: string(topology.East)},
			RPS: east, Requests: uint64(east), MeanLatency: 30 * time.Millisecond},
	}
}

func TestGlobalMetricsOptimizeTableRoundTrip(t *testing.T) {
	_, srv := newGlobalServer(t)

	resp := postJSONReq(t, srv.URL+"/v1/metrics", MetricsReport{
		Cluster: topology.West, WindowMS: 1000, Stats: feStats(900, 100),
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	drain(resp)

	resp = postJSONReq(t, srv.URL+"/v1/optimize", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize status = %d", resp.StatusCode)
	}
	var table routing.Table
	if err := json.NewDecoder(resp.Body).Decode(&table); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if table.Len() == 0 {
		t.Fatal("optimizer produced no rules under overload")
	}
	d := table.Lookup("svc-1", "default", topology.West)
	if d.Weight(topology.East) <= 0 {
		t.Errorf("no offload in pushed table: %v", d)
	}

	// GET /v1/table returns the same rules.
	resp2, err := http.Get(srv.URL + "/v1/table")
	if err != nil {
		t.Fatal(err)
	}
	var table2 routing.Table
	if err := json.NewDecoder(resp2.Body).Decode(&table2); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if table2.Version != table.Version || table2.Len() != table.Len() {
		t.Errorf("table mismatch: v%d/%d vs v%d/%d", table2.Version, table2.Len(), table.Version, table.Len())
	}
}

func TestGlobalStatus(t *testing.T) {
	_, srv := newGlobalServer(t)
	resp := postJSONReq(t, srv.URL+"/v1/register", RegisterRequest{Cluster: topology.West, URL: "http://127.0.0.1:1"})
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("register status = %d", resp.StatusCode)
	}
	drain(resp)

	r2, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(r2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if len(st.Clusters) != 1 || st.Clusters[0] != topology.West {
		t.Errorf("status clusters = %v", st.Clusters)
	}
}

func TestGlobalRegisterValidation(t *testing.T) {
	_, srv := newGlobalServer(t)
	resp := postJSONReq(t, srv.URL+"/v1/register", RegisterRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty register status = %d, want 400", resp.StatusCode)
	}
	drain(resp)
	resp2, err := http.Post(srv.URL+"/v1/metrics", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad json status = %d, want 400", resp2.StatusCode)
	}
	drain(resp2)
}

func TestClusterControllerCollectTagsClusterID(t *testing.T) {
	cc := NewCluster(topology.West, "")
	reg := dataplane.ResolverFunc(func(s string, c topology.ClusterID) (string, error) {
		return "", fmt.Errorf("none")
	})
	app := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	}))
	defer app.Close()
	p, err := dataplane.New(dataplane.Config{
		Service: "svc", Cluster: "unknown-to-proxy", LocalApp: app.URL, Resolver: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	cc.AddProxy(p)
	srv := httptest.NewServer(p)
	defer srv.Close()
	if _, err := http.Get(srv.URL + "/x"); err != nil {
		t.Fatal(err)
	}
	stats := cc.Collect(time.Second)
	if len(stats) != 1 {
		t.Fatalf("stats = %d", len(stats))
	}
	if stats[0].Key.Cluster != string(topology.West) {
		t.Errorf("cluster tag = %q, want west (controller is authoritative)", stats[0].Key.Cluster)
	}
}

func TestClusterControllerRulePushAppliesToProxies(t *testing.T) {
	cc := NewCluster(topology.West, "")
	reg := dataplane.ResolverFunc(func(s string, c topology.ClusterID) (string, error) {
		return "", fmt.Errorf("none")
	})
	p, err := dataplane.New(dataplane.Config{
		Service: "svc", Cluster: topology.West, LocalApp: "http://127.0.0.1:1", Resolver: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	cc.AddProxy(p)
	srv := httptest.NewServer(cc.Handler())
	defer srv.Close()

	table := routing.NewTable(7, map[routing.Key]routing.Distribution{
		{Service: "callee", Class: routing.AnyClass, Cluster: topology.West}: routing.Local(topology.East),
	})
	body, _ := json.Marshal(routing.FullPatch(table))
	resp, err := http.Post(srv.URL+"/v1/patch", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	drain(resp)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("patch status = %d", resp.StatusCode)
	}
	if p.TableVersion() != 7 {
		t.Errorf("proxy table version = %d, want 7", p.TableVersion())
	}
	if cc.Table().Version != 7 {
		t.Errorf("cc table version = %d", cc.Table().Version)
	}
}

func TestEndToEndControlPlaneLoop(t *testing.T) {
	// Full loop over real HTTP: cluster controllers register with the
	// global, upload telemetry, global optimizes and pushes rules back,
	// and the proxies see the new table.
	_, gsrv := newGlobalServer(t)

	reg := dataplane.ResolverFunc(func(s string, c topology.ClusterID) (string, error) {
		return "", fmt.Errorf("none")
	})
	mk := func(cl topology.ClusterID) (*Cluster, *dataplane.Proxy) {
		cc := NewCluster(cl, gsrv.URL)
		p, err := dataplane.New(dataplane.Config{
			Service: "gateway", Cluster: cl, LocalApp: "http://127.0.0.1:1", Resolver: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		cc.AddProxy(p)
		srv := httptest.NewServer(cc.Handler())
		t.Cleanup(srv.Close)
		if err := cc.Register(t.Context(), srv.URL); err != nil {
			t.Fatal(err)
		}
		return cc, p
	}
	ccW, pW := mk(topology.West)
	ccE, _ := mk(topology.East)

	// Inject telemetry into the global via the cluster controllers'
	// report path (no local traffic: hand-roll the upload).
	up := func(cc *Cluster, stats []telemetry.WindowStats) {
		body, _ := json.Marshal(MetricsReport{Cluster: cc.ID(), WindowMS: 1000, Stats: stats})
		resp, err := http.Post(gsrv.URL+"/v1/metrics", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		drain(resp)
	}
	up(ccW, feStats(900, 0)[:1])
	up(ccE, feStats(0, 100)[1:])

	resp := postJSONReq(t, gsrv.URL+"/v1/optimize", struct{}{})
	drain(resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize status = %d", resp.StatusCode)
	}

	// The push must have reached the west proxy.
	if pW.TableVersion() == 0 {
		t.Fatal("proxy never received a rule push")
	}
	d := pW.Table().Lookup("svc-1", "default", topology.West)
	if d.Weight(topology.East) <= 0 {
		t.Errorf("west proxy has no offload rule: %v", d)
	}
}

func TestTableJSONRoundTrip(t *testing.T) {
	table := routing.NewTable(3, map[routing.Key]routing.Distribution{
		{Service: "s", Class: "H", Cluster: topology.West}: mustDist(map[topology.ClusterID]float64{
			topology.West: 0.25, topology.East: 0.75,
		}),
	})
	body, err := json.Marshal(table)
	if err != nil {
		t.Fatal(err)
	}
	var got routing.Table
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Version != 3 || got.Len() != 1 {
		t.Fatalf("round trip lost data: v%d len %d", got.Version, got.Len())
	}
	d := got.Lookup("s", "H", topology.West)
	if w := d.Weight(topology.East); !almostEqual(w, 0.75) {
		t.Errorf("east weight = %v, want 0.75", w)
	}
}

func mustDist(w map[topology.ClusterID]float64) routing.Distribution {
	d, err := routing.NewDistribution(w)
	if err != nil {
		panic(err)
	}
	return d
}

func TestGlobalRunLoopTicksAndStops(t *testing.T) {
	g, _ := newGlobalServer(t)
	ctx, cancel := context.WithCancel(t.Context())
	done := make(chan struct{})
	go func() {
		g.Run(ctx, 5*time.Millisecond)
		close(done)
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Run did not stop")
	}
	g.mu.Lock()
	ticks := g.ticks
	g.mu.Unlock()
	if ticks == 0 {
		t.Error("Run never ticked")
	}
}
