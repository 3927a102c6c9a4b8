package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/controlplane"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// TestRegistersWithEveryReplica starts a cluster controller with two
// replica URLs, the second of which answers nothing until after the
// cluster has started. The cluster must register with both — the late
// one through Run's retry — so that both replicas count it as a lease
// acceptor and exactly one of them leads once both have stepped: a
// replica with no registered clusters would trivially lead too. The
// second replica then restarts with no clusters; Run must register with
// it again, so that it still follows.
func TestRegistersWithEveryReplica(t *testing.T) {
	top := topology.TwoClusters(40 * time.Millisecond)
	app := appgraph.LinearChain(appgraph.ChainOptions{
		Services: 2, MeanServiceTime: 10 * time.Millisecond,
		Pool: appgraph.ReplicaPool{Replicas: 2, Concurrency: 4}, Clusters: top.ClusterIDs(),
	})
	// replica starts a global replica serving at srv, with no clusters.
	replica := func(srv *httptest.Server) (*controlplane.Global, http.Handler) {
		ctrl, err := core.NewController(top, app, core.ControllerConfig{Decompose: true})
		if err != nil {
			t.Fatal(err)
		}
		g := controlplane.NewGlobal(ctrl)
		g.EnableHA(srv.URL, time.Minute)
		return g, g.Handler()
	}
	// server serves whichever replica h holds, and 503 while it holds none.
	server := func(h *atomic.Pointer[http.Handler]) *httptest.Server {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if p := h.Load(); p != nil {
				(*p).ServeHTTP(w, r)
				return
			}
			http.Error(w, "starting", http.StatusServiceUnavailable)
		}))
		t.Cleanup(srv.Close)
		return srv
	}
	var ha, hb atomic.Pointer[http.Handler]
	sa, sb := server(&ha), server(&hb)
	ga, h := replica(sa)
	ha.Store(&h)

	cc := newCluster(topology.West, sa.URL+","+sb.URL)
	csrv := httptest.NewServer(cc.Handler())
	t.Cleanup(csrv.Close)
	if err := cc.Register(t.Context(), csrv.URL); err == nil {
		t.Fatal("registering with a replica that answers 503 did not fail")
	}
	go cc.Run(t.Context(), 10*time.Millisecond)

	registered := func(srv *httptest.Server) bool {
		resp, err := http.Get(srv.URL + "/v1/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return false
		}
		var st controlplane.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return slices.Contains(st.Clusters, topology.West)
	}
	waitRegistered := func(what string) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !registered(sa) || !registered(sb); time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: cluster registered with replica a: %v, b: %v; want both", what, registered(sa), registered(sb))
			}
		}
	}
	// startB starts replica b afresh, with no clusters, and steps both.
	startB := func(what string) {
		t.Helper()
		gb, h := replica(sb)
		hb.Store(&h)
		waitRegistered(what)
		ga.HAStep(t.Context())
		gb.HAStep(t.Context())
		if !ga.IsLeader() || gb.IsLeader() {
			t.Fatalf("%s: leaders: a %v, b %v; want exactly one, the first to campaign", what, ga.IsLeader(), gb.IsLeader())
		}
	}
	startB("late start")
	hb.Store(nil)
	startB("restart")
}
