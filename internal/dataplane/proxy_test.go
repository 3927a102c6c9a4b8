package dataplane

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/netem"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/sim"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// registry is a test Resolver.
type registry struct {
	mu sync.Mutex
	m  map[string]string // service|cluster -> URL
}

func newRegistry() *registry { return &registry{m: map[string]string{}} }

func (r *registry) add(service string, cluster topology.ClusterID, url string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[service+"|"+string(cluster)] = url
}

func (r *registry) Resolve(service string, cluster topology.ClusterID) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	u, ok := r.m[service+"|"+string(cluster)]
	if !ok {
		return "", fmt.Errorf("no replica of %s in %s", service, cluster)
	}
	return u, nil
}

// echoApp returns an app server that echoes its name and the class its
// context carried.
func echoApp(t *testing.T, name string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		in, _ := readHop(r.Header)
		fmt.Fprintf(w, "%s:%s:%s", name, in.class, r.URL.Path)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func newProxy(t *testing.T, svc string, cluster topology.ClusterID, app string, reg *registry, nem *netem.Emulator) (*Proxy, *httptest.Server) {
	t.Helper()
	p, err := New(Config{
		Service:  svc,
		Cluster:  cluster,
		LocalApp: app,
		Resolver: reg,
		Netem:    nem,
		RNG:      sim.NewRNG(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p)
	t.Cleanup(srv.Close)
	reg.add(svc, cluster, srv.URL)
	return p, srv
}

func TestProxyInboundForwardsAndClassifies(t *testing.T) {
	reg := newRegistry()
	app := echoApp(t, "app")
	p, srv := newProxy(t, "svc", topology.West, app.URL, reg, nil)

	resp, err := http.Get(srv.URL + "/user/123/cart")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	got := string(body)
	if !strings.HasPrefix(got, "app:") {
		t.Fatalf("body = %q", got)
	}
	// The class header injected for the app mentions the templated path.
	if !strings.Contains(got, "/user/:id/cart") {
		t.Errorf("class not derived from templated path: %q", got)
	}
	stats := p.FlushTelemetry(time.Second)
	if len(stats) != 1 || stats[0].Key.Service != "svc" || stats[0].Requests != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if stats[0].Key.Cluster != string(topology.West) {
		t.Errorf("cluster = %q", stats[0].Key.Cluster)
	}
}

func TestProxyOutboundRoutesLocalByDefault(t *testing.T) {
	reg := newRegistry()
	appA := echoApp(t, "a")
	appB := echoApp(t, "b")
	pa, _ := newProxy(t, "svc-a", topology.West, appA.URL, reg, nil)
	_, sb := newProxy(t, "svc-b", topology.West, appB.URL, reg, nil)
	_ = sb
	// svc-a's app asks its sidecar to call svc-b.
	paSrv := httptest.NewServer(pa)
	defer paSrv.Close()
	req, _ := http.NewRequest("GET", paSrv.URL+"/do", nil)
	req.Header.Set(HeaderOutbound, "svc-b")
	req.Header.Set(HeaderContext, hopContext{trace: 0x1f, parent: 0x2e, source: string(topology.West), class: "c1"}.String())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.HasPrefix(string(body), "b:c1:") {
		t.Fatalf("body = %q", string(body))
	}
}

func TestProxyOutboundFollowsRoutingRules(t *testing.T) {
	reg := newRegistry()
	appW := echoApp(t, "west-app")
	appE := echoApp(t, "east-app")
	pw, _ := newProxy(t, "caller", topology.West, appW.URL, reg, nil)
	newProxy(t, "callee", topology.West, appW.URL, reg, nil)
	newProxy(t, "callee", topology.East, appE.URL, reg, nil)

	// Route 100% of callee traffic from west to east.
	pw.SetTable(routing.NewTable(2, map[routing.Key]routing.Distribution{
		{Service: "callee", Class: routing.AnyClass, Cluster: topology.West}: routing.Local(topology.East),
	}))
	if pw.TableVersion() != 2 {
		t.Fatalf("version = %d", pw.TableVersion())
	}

	srv := httptest.NewServer(pw)
	defer srv.Close()
	req, _ := http.NewRequest("GET", srv.URL+"/x", strings.NewReader("hello"))
	req.Header.Set(HeaderOutbound, "callee")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.HasPrefix(string(body), "east-app:") {
		t.Fatalf("routed to %q, want east-app", string(body))
	}
	// Egress accounted for the cross-cluster hop.
	stats := pw.FlushTelemetry(time.Second)
	var egress int64
	for _, ws := range stats {
		if ws.Key.Service == "__egress__" {
			egress += ws.EgressBytes
		}
	}
	if egress <= 0 {
		t.Error("no egress recorded for cross-cluster call")
	}
}

func TestProxyOutboundWeightedSplit(t *testing.T) {
	reg := newRegistry()
	appW := echoApp(t, "W")
	appE := echoApp(t, "E")
	pw, _ := newProxy(t, "caller", topology.West, appW.URL, reg, nil)
	newProxy(t, "callee", topology.West, appW.URL, reg, nil)
	newProxy(t, "callee", topology.East, appE.URL, reg, nil)

	d, err := routing.NewDistribution(map[topology.ClusterID]float64{
		topology.West: 0.5, topology.East: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	pw.SetTable(routing.NewTable(1, map[routing.Key]routing.Distribution{
		{Service: "callee", Class: routing.AnyClass, Cluster: topology.West}: d,
	}))
	srv := httptest.NewServer(pw)
	defer srv.Close()

	counts := map[string]int{}
	for i := 0; i < 200; i++ {
		req, _ := http.NewRequest("GET", srv.URL+"/x", nil)
		req.Header.Set(HeaderOutbound, "callee")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		counts[string(body[0])]++
	}
	if counts["W"] < 60 || counts["E"] < 60 {
		t.Errorf("split too skewed: %v", counts)
	}
}

func TestProxyCrossClusterDelay(t *testing.T) {
	top := topology.TwoClusters(60 * time.Millisecond)
	nem := netem.New(top, 1)
	reg := newRegistry()
	appW := echoApp(t, "W")
	appE := echoApp(t, "E")
	pw, _ := newProxy(t, "caller", topology.West, appW.URL, reg, nem)
	newProxy(t, "callee", topology.East, appE.URL, reg, nem)

	pw.SetTable(routing.NewTable(1, map[routing.Key]routing.Distribution{
		{Service: "callee", Class: routing.AnyClass, Cluster: topology.West}: routing.Local(topology.East),
	}))
	srv := httptest.NewServer(pw)
	defer srv.Close()

	req, _ := http.NewRequest("GET", srv.URL+"/x", nil)
	req.Header.Set(HeaderOutbound, "callee")
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Errorf("cross-cluster call took %v, want >= 60ms RTT", elapsed)
	}
}

func TestProxyFallsBackWhenRuleTargetsMissingReplica(t *testing.T) {
	reg := newRegistry()
	app := echoApp(t, "W")
	pw, _ := newProxy(t, "caller", topology.West, app.URL, reg, nil)
	newProxy(t, "callee", topology.West, app.URL, reg, nil)
	// Rule points at east where callee has no replica.
	pw.SetTable(routing.NewTable(1, map[routing.Key]routing.Distribution{
		{Service: "callee", Class: routing.AnyClass, Cluster: topology.West}: routing.Local(topology.East),
	}))
	srv := httptest.NewServer(pw)
	defer srv.Close()
	req, _ := http.NewRequest("GET", srv.URL+"/x", nil)
	req.Header.Set(HeaderOutbound, "callee")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(body), "W:") {
		t.Errorf("fallback failed: %d %q", resp.StatusCode, string(body))
	}
}

func TestProxyUnresolvableTargetFails(t *testing.T) {
	reg := newRegistry()
	app := echoApp(t, "W")
	pw, _ := newProxy(t, "caller", topology.West, app.URL, reg, nil)
	srv := httptest.NewServer(pw)
	defer srv.Close()
	req, _ := http.NewRequest("GET", srv.URL+"/x", nil)
	req.Header.Set(HeaderOutbound, "ghost")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", resp.StatusCode)
	}
}

func TestProxySpans(t *testing.T) {
	reg := newRegistry()
	app := echoApp(t, "app")
	p, srv := newProxy(t, "svc", topology.West, app.URL, reg, nil)
	req, _ := http.NewRequest("GET", srv.URL+"/x", nil)
	req.Header.Set(HeaderContext, hopContext{trace: 0xab12, parent: 0x2e, source: string(topology.East), class: "c1"}.String())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	spans := p.DrainSpans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	s := spans[0]
	if s.Trace != 0xab12 || s.Parent != 0x2e || s.Class != "c1" || s.Service != "svc" || !s.Remote {
		t.Errorf("span = %+v", s)
	}
	if s.End <= s.Start {
		t.Error("span has non-positive duration")
	}
	if got := p.DrainSpans(); len(got) != 0 {
		t.Error("DrainSpans did not clear")
	}
}

func TestProxyConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{Service: "s", Cluster: "c"}); err == nil {
		t.Error("missing resolver accepted")
	}
}

func TestProxyConcurrentRequests(t *testing.T) {
	reg := newRegistry()
	app := echoApp(t, "app")
	p, srv := newProxy(t, "svc", topology.West, app.URL, reg, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				resp, err := http.Get(srv.URL + "/x")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	stats := p.FlushTelemetry(time.Second)
	var total uint64
	for _, ws := range stats {
		total += ws.Requests
	}
	if total != 240 {
		t.Errorf("recorded %d requests, want 240", total)
	}
}
