package emul

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/fault"
	"github.com/servicelayernetworking/slate/internal/topology"
)

func faultyMesh(t *testing.T) (*Mesh, *fault.Injector) {
	t.Helper()
	inj := fault.NewInjector()
	m := startMesh(t, Options{
		Top:        topology.TwoClusters(10 * time.Millisecond),
		App:        smallChain(),
		NetemScale: 0.1,
		Seed:       3,
		Fault:      inj,
		StaleAfter: 200 * time.Millisecond,
	})
	return m, inj
}

func TestMeshServesThroughGlobalOutage(t *testing.T) {
	m, _ := faultyMesh(t)
	if err := m.TickControl(time.Second); err != nil {
		t.Fatalf("healthy tick: %v", err)
	}

	m.CrashGlobalReplica(0)
	// The control plane is down: ticking reports it but must not wedge.
	if err := m.TickControl(time.Second); err == nil {
		t.Error("tick during global outage reported no error")
	} else if !strings.Contains(err.Error(), "down") {
		t.Errorf("outage tick error = %v, want a down marker", err)
	}
	// The crashed controller's API answers 503 to anyone who asks.
	resp, err := http.Get(m.GlobalURL() + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("crashed global status = %d, want 503", resp.StatusCode)
	}

	// The dataplane keeps serving end to end regardless.
	res, err := m.Drive(context.Background(), "default", topology.West, 30, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 0 || len(res.Latencies) == 0 {
		t.Fatalf("dataplane suffered during control outage: %d errors, %d ok", res.Errors, len(res.Latencies))
	}

	m.RestartGlobalReplica(0)
	if err := m.TickControl(time.Second); err != nil {
		t.Errorf("tick after restart: %v", err)
	}
}

func TestMeshClusterCrashExcludesItFromControl(t *testing.T) {
	m, inj := faultyMesh(t)
	inj.Crash(fault.ClusterTarget(topology.East))
	// West still reports; east's report fails but is contained.
	err := m.TickControl(time.Second)
	if err == nil {
		t.Error("tick with east down reported no error")
	}
	if inj.IsDown(fault.ClusterTarget(topology.East)) != true {
		t.Fatal("east not marked down")
	}
	// West's controller kept working: its report reached the global and
	// the tick still pushed rules to west.
	resp, err := http.Get(m.GlobalURL() + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("global status = %d after a cluster crash", resp.StatusCode)
	}
	inj.Restart(fault.ClusterTarget(topology.East))
	if err := m.TickControl(time.Second); err != nil {
		t.Errorf("tick after east restart: %v", err)
	}
}

func TestMeshPartitionDropsCrossClusterControlRPCs(t *testing.T) {
	m, inj := faultyMesh(t)
	// Cut west from east: cross-cluster control traffic dies, but both
	// clusters' local loops and the global (outside any cluster) are
	// untouched in this wiring, so a control tick still works.
	inj.PartitionClusters(topology.West, topology.East)
	if err := m.TickControl(time.Second); err != nil {
		t.Errorf("tick under west-east partition: %v (global is not inside a cluster)", err)
	}
	inj.HealAll()
	if err := m.TickControl(time.Second); err != nil {
		t.Errorf("tick after heal: %v", err)
	}
}

func TestMeshStaleAfterFlowsToProxies(t *testing.T) {
	m, _ := faultyMesh(t)
	p := m.Proxy("gateway", topology.West)
	if p.DegradationLevel() == 2 {
		t.Fatal("rules stale immediately after start")
	}
	time.Sleep(250 * time.Millisecond) // past the 200ms StaleAfter
	if p.DegradationLevel() != 2 {
		t.Fatal("rules not stale past StaleAfter without a control tick")
	}
	// A control round refreshes every proxy, through the rule push or,
	// once its cluster runs the published table, the report's answer.
	if err := m.TickControl(time.Second); err != nil {
		t.Fatalf("tick: %v", err)
	}
	if p.DegradationLevel() == 2 {
		t.Error("rules still stale after a successful control round")
	}
}
