package dataplane

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// serveRules answers GET /v1/rules the way the cluster controller does:
// the full table without a query, a routing.Patch for ?since=N — empty
// when the poller is current, else a full patch (the shape a poller
// outside the history window gets).
func serveRules(w http.ResponseWriter, r *http.Request, table *routing.Table) {
	w.Header().Set("Content-Type", "application/json")
	since := r.URL.Query().Get("since")
	if since == "" {
		body, _ := table.MarshalJSON()
		w.Write(body)
		return
	}
	p := routing.FullPatch(table)
	if since == strconv.FormatUint(table.Version, 10) {
		p = routing.MakePatch(table, table)
	}
	body, _ := json.Marshal(p)
	w.Write(body)
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

	reg := newRegistry()
	app := echoApp(t, "app")
	p, srv := newProxy(t, "svc", topology.West, app.URL, reg, nil)

	// Generate one request so there is telemetry to push.
	resp, err := http.Get(srv.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	agent, err := NewAgent(p, cc.URL, time.Second)
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
	reg := newRegistry()
	app := echoApp(t, "app")
	p, _ := newProxy(t, "svc", topology.West, app.URL, reg, nil)
	agent, err := NewAgent(p, "http://127.0.0.1:1", 50*time.Millisecond)
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
	if _, err := NewAgent(nil, "http://x", time.Second); err == nil {
		t.Error("nil proxy accepted")
	}
	reg := newRegistry()
	app := echoApp(t, "app")
	p, _ := newProxy(t, "svc", topology.West, app.URL, reg, nil)
	if _, err := NewAgent(p, "", time.Second); err == nil {
		t.Error("empty URL accepted")
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

	reg := newRegistry()
	app := echoApp(t, "app")
	p, _ := newProxy(t, "svc", topology.West, app.URL, reg, nil)
	agent, err := NewAgent(p, cc.URL, time.Second)
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
	if agent.LeaderEpoch() != 1 || agent.LeaderFailovers() != 0 {
		t.Fatalf("epoch %d failovers %d, want 1 and 0",
			agent.LeaderEpoch(), agent.LeaderFailovers())
	}

	// Steady state under the same leader: no failover, no full fetch.
	if err := agent.Sync(t.Context()); err != nil {
		t.Fatal(err)
	}
	if agent.LeaderFailovers() != 0 || fullFetches != 0 {
		t.Fatalf("failovers %d fullFetches %d after steady poll, want 0 and 0",
			agent.LeaderFailovers(), fullFetches)
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
	if agent.LeaderFailovers() != 1 || agent.LeaderEpoch() != 2 {
		t.Fatalf("failovers %d epoch %d, want 1 and 2",
			agent.LeaderFailovers(), agent.LeaderEpoch())
	}
	if fullFetches != 1 {
		t.Fatalf("full fetches = %d, want exactly 1 (the failover resync)", fullFetches)
	}
}
