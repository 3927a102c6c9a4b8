package emul

import (
	"context"
	"io"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/dataplane"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

func smallChain() *appgraph.App {
	return deterministic(appgraph.LinearChain(appgraph.ChainOptions{
		Services:        2,
		MeanServiceTime: 2 * time.Millisecond,
		Pool:            appgraph.ReplicaPool{Replicas: 1, Concurrency: 8},
		Clusters:        []topology.ClusterID{topology.West, topology.East},
		ResponseBytes:   512,
	}))
}

// deterministic makes every call of app take exactly its mean service
// time.
func deterministic(app *appgraph.App) *appgraph.App {
	for _, c := range app.Classes {
		c.Root.Walk(func(n *appgraph.CallNode) { n.Work.Dist = appgraph.DistDeterministic })
	}
	return app
}

func startMesh(t *testing.T, opts Options) *Mesh {
	t.Helper()
	m, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func TestMeshServesRequestEndToEnd(t *testing.T) {
	m := startMesh(t, Options{
		Top:        topology.TwoClusters(10 * time.Millisecond),
		App:        smallChain(),
		NetemScale: 0.1,
		Seed:       1,
	})
	fe, err := m.FrontendURL(topology.West)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest("POST", fe+"/ingress", nil)
	req.Header.Set(dataplane.HeaderClass, "default")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d body=%q", resp.StatusCode, string(body))
	}
	if len(body) != 512 {
		t.Errorf("response bytes = %d, want 512", len(body))
	}
	// Telemetry flowed: the frontend proxy saw the request. The sidecar
	// records it after copying the response out, so the client may get
	// here first: wait for the record.
	deadline := time.Now().Add(5 * time.Second)
	for len(m.Proxy("gateway", topology.West).FlushTelemetry(time.Second)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no telemetry at the gateway sidecar")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMeshDriveCollectsLatencies(t *testing.T) {
	m := startMesh(t, Options{
		Top:        topology.TwoClusters(10 * time.Millisecond),
		App:        smallChain(),
		NetemScale: 0.1,
		Seed:       2,
	})
	res, err := m.Drive(context.Background(), "default", topology.West, 50, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 0 {
		t.Fatalf("%d/%d requests failed", res.Errors, res.Sent)
	}
	if len(res.Latencies) < 30 {
		t.Fatalf("only %d requests completed", len(res.Latencies))
	}
	// Chain of 2 services at 2ms deterministic: at least ~4ms each.
	if res.Mean() < 4*time.Millisecond {
		t.Errorf("mean %v below service-time floor", res.Mean())
	}
	if res.P99() < res.Mean() {
		t.Errorf("p99 %v < mean %v", res.P99(), res.Mean())
	}
}

// TestDriveClosesConnections: Drive closes the connections it dialled
// when it returns, so a caller that drives in a loop (slate-emul does)
// does not pile up idle connections and the goroutines that serve them
// on both ends.
func TestDriveClosesConnections(t *testing.T) {
	m := startMesh(t, Options{
		Top:        topology.TwoClusters(10 * time.Millisecond),
		App:        smallChain(),
		NetemScale: 0.1,
		Seed:       6,
	})
	drive := func() {
		t.Helper()
		res, err := m.Drive(context.Background(), "default", topology.West, 300, 300*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors > 0 {
			t.Fatalf("%d/%d requests failed", res.Errors, res.Sent)
		}
	}
	// Fill every connection pool in the mesh to its idle cap of 64 a
	// host, so no pool grows during the measured calls and the count
	// below moves only with the connections Drive dials.
	fe, err := m.FrontendURL(topology.West)
	if err != nil {
		t.Fatal(err)
	}
	warm := &http.Transport{}
	var wg sync.WaitGroup
	for range 64 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodPost, fe+"/ingress", nil)
			req.Header.Set(dataplane.HeaderClass, "default")
			if resp, err := warm.RoundTrip(req); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	warm.CloseIdleConnections()

	drive()
	time.Sleep(100 * time.Millisecond) // let closed connections' goroutines exit
	first := runtime.NumGoroutine()
	drive()
	drive()
	// A server notices a closed connection a moment later: allow for it.
	const slack = 8
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > first+slack && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if n > first+slack {
		t.Errorf("%d goroutines after three Drive calls, %d after the first", n, first)
	}
}

func TestMeshControlLoopInstallsRulesUnderOverload(t *testing.T) {
	// West pool concurrency 2 at 20ms => ~100 RPS capacity; drive 150
	// RPS into west and idle east: the control loop must start
	// offloading west traffic to east.
	app := deterministic(appgraph.LinearChain(appgraph.ChainOptions{
		Services:        1,
		MeanServiceTime: 20 * time.Millisecond,
		Pool:            appgraph.ReplicaPool{Replicas: 1, Concurrency: 2},
		Clusters:        []topology.ClusterID{topology.West, topology.East},
		ResponseBytes:   128,
	}))
	m := startMesh(t, Options{
		Top:        topology.TwoClusters(10 * time.Millisecond),
		App:        app,
		NetemScale: 0.1,
		Controller: core.ControllerConfig{DemandSmoothing: 1},
		Seed:       3,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// Drive load and tick the control plane in between.
	for round := 0; round < 3; round++ {
		if _, err := m.Drive(ctx, "default", topology.West, 120, time.Second); err != nil {
			t.Fatal(err)
		}
		if err := m.TickControl(time.Second); err != nil {
			t.Logf("control tick: %v (may be transient)", err)
		}
	}
	p := m.Proxy("svc-1", topology.West)
	// The caller of svc-1 is the gateway; its west sidecar must hold an
	// offload rule for svc-1.
	gw := m.Proxy("gateway", topology.West)
	d := gw.Table().Lookup("svc-1", "default", topology.West)
	if d.Weight(topology.East) <= 0 {
		t.Errorf("control loop installed no offload: %v (version %d)", d, gw.TableVersion())
	}
	_ = p
}

func TestMeshPartialReplicationRoutesRemote(t *testing.T) {
	app := appgraph.AnomalyDetection(appgraph.AnomalyOptions{
		MetricsBytes:  10_000,
		ResponseRatio: 10,
		FrontendTime:  200 * time.Microsecond,
		ProcessTime:   time.Millisecond,
		QueryTime:     time.Millisecond,
		Pool:          appgraph.ReplicaPool{Replicas: 1, Concurrency: 8},
	})
	m := startMesh(t, Options{
		Top:        topology.TwoClusters(20 * time.Millisecond),
		App:        app,
		NetemScale: 0.05,
		Seed:       4,
	})
	// DB absent in west: requests must still succeed via east.
	res, err := m.Drive(context.Background(), "detect", topology.West, 30, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 0 {
		t.Fatalf("%d requests failed (DB failover broken)", res.Errors)
	}
	// The MP sidecar in west must have crossed clusters (egress > 0).
	stats := m.Proxy(appgraph.AnomalyMP, topology.West).FlushTelemetry(time.Second)
	var egress int64
	for _, ws := range stats {
		if ws.Key.Service == "__egress__" {
			egress += ws.EgressBytes
		}
	}
	if egress == 0 {
		t.Error("no egress recorded for forced cross-cluster DB calls")
	}
}

func TestMeshValidation(t *testing.T) {
	if _, err := Start(Options{}); err == nil {
		t.Error("empty options accepted")
	}
	app := smallChain()
	app.Classes = nil
	if _, err := Start(Options{Top: topology.TwoClusters(time.Millisecond), App: app}); err == nil {
		t.Error("invalid app accepted")
	}
}

func TestMeshGlobalStatusReachable(t *testing.T) {
	m := startMesh(t, Options{
		Top:        topology.TwoClusters(10 * time.Millisecond),
		App:        smallChain(),
		NetemScale: 0.1,
		Seed:       5,
	})
	resp, err := http.Get(m.GlobalURL() + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status endpoint = %d", resp.StatusCode)
	}
}

func TestMeshTracesReconstructAcrossSidecars(t *testing.T) {
	// Spans emitted by different sidecars for one request must link into
	// a single call tree: fr -> svc chain with correct parentage.
	app := appgraph.AnomalyDetection(appgraph.AnomalyOptions{
		MetricsBytes:  10_000,
		ResponseRatio: 10,
		FrontendTime:  200 * time.Microsecond,
		ProcessTime:   time.Millisecond,
		QueryTime:     time.Millisecond,
		Pool:          appgraph.ReplicaPool{Replicas: 1, Concurrency: 8},
	})
	m := startMesh(t, Options{
		Top:        topology.TwoClusters(10 * time.Millisecond),
		App:        app,
		NetemScale: 0.05,
		Seed:       11,
	})
	fe, err := m.FrontendURL(topology.East)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest("GET", fe+"/detect", nil)
	req.Header.Set(dataplane.HeaderClass, "detect")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// A sidecar records its span after the response has left, so the
	// frontend's may land a moment after the client has the body.
	var spans []telemetry.Span
	for deadline := time.Now().Add(2 * time.Second); len(spans) < 3 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, svc := range []appgraph.ServiceID{appgraph.AnomalyFR, appgraph.AnomalyMP, appgraph.AnomalyDB} {
			for _, cl := range []topology.ClusterID{topology.West, topology.East} {
				if p := m.Proxy(svc, cl); p != nil {
					spans = append(spans, p.DrainSpans()...)
				}
			}
		}
	}
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3 (fr, mp, db)", len(spans))
	}
	tree, err := telemetry.BuildTree(spans)
	if err != nil {
		t.Fatalf("BuildTree: %v", err)
	}
	if len(tree.Orphans) != 0 {
		t.Fatalf("orphan spans: %d", len(tree.Orphans))
	}
	if tree.Root.Span.Service != "fr" ||
		tree.Root.Children[0].Span.Service != "mp" ||
		tree.Root.Children[0].Children[0].Span.Service != "db" {
		t.Error("trace structure wrong")
	}
	// The learned class from this live trace must match the app shape.
	cl, err := appgraph.FromTrace("detect", spans)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Root.Children[0].Children[0].Service != appgraph.AnomalyDB {
		t.Error("learned class structure wrong")
	}
}
