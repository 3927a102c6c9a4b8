package fault

import (
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/obs"
	"github.com/servicelayernetworking/slate/internal/topology"
)

func TestTargetNaming(t *testing.T) {
	if got := ClusterTarget(topology.West); got != "cluster:west" {
		t.Errorf("ClusterTarget = %q", got)
	}
	if got := ProxyTarget("checkout", topology.East); got != "proxy:checkout@east" {
		t.Errorf("ProxyTarget = %q", got)
	}
	cases := map[Target]topology.ClusterID{
		Global:                          "",
		ClusterTarget(topology.West):    topology.West,
		ProxyTarget("svc", "east"):      "east",
		Target("127.0.0.1:8080"):        "",
		Target("proxy:noclustermarker"): "",
	}
	for in, want := range cases {
		if got := ClusterOf(in); got != want {
			t.Errorf("ClusterOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCrashRestart(t *testing.T) {
	inj := NewInjector()
	cc := ClusterTarget(topology.West)
	if inj.blocked(cc, Global) {
		t.Fatal("healthy edge dropped")
	}
	inj.Crash(Global)
	if !inj.IsDown(Global) {
		t.Error("IsDown(global) = false after Crash")
	}
	if !inj.blocked(cc, Global) {
		t.Error("RPC to crashed global not dropped")
	}
	if !inj.blocked(Global, cc) {
		t.Error("RPC from crashed global not dropped")
	}
	inj.Restart(Global)
	if inj.blocked(cc, Global) {
		t.Error("RPC dropped after Restart")
	}
}

func TestPartitionBlocksCrossClusterOnly(t *testing.T) {
	inj := NewInjector()
	inj.PartitionClusters(topology.West, topology.East)
	wp := ProxyTarget("svc", topology.West)
	ep := ProxyTarget("svc", topology.East)
	wc := ClusterTarget(topology.West)
	ec := ClusterTarget(topology.East)
	if !inj.blocked(wp, ec) {
		t.Error("west proxy -> east cc not dropped under partition")
	}
	if !inj.blocked(ep, wc) {
		t.Error("east proxy -> west cc not dropped under partition")
	}
	if inj.blocked(wp, wc) {
		t.Error("intra-cluster RPC dropped under partition")
	}
	// The global controller lives outside every cluster: reachable.
	if inj.blocked(wc, Global) {
		t.Error("cluster -> global dropped by a west/east partition")
	}
	inj.HealClusters(topology.East, topology.West) // order-insensitive
	if inj.blocked(wp, ec) {
		t.Error("RPC dropped after HealClusters")
	}
}

func TestHealAllClearsFaults(t *testing.T) {
	inj := NewInjector()
	wc, ec := ClusterTarget(topology.West), ClusterTarget(topology.East)
	inj.Crash(Global)
	inj.Crash(wc)
	inj.PartitionClusters(topology.West, topology.East)
	if got := inj.String(); got != "fault.Injector{down:2 partitions:1}" {
		t.Errorf("String = %q", got)
	}
	inj.HealAll()
	if inj.IsDown(Global) || inj.IsDown(wc) {
		t.Error("component still down after HealAll")
	}
	if inj.blocked(ProxyTarget("svc", topology.West), ec) {
		t.Error("partition survived HealAll")
	}
	if inj.blocked(wc, Global) {
		t.Error("crash survived HealAll")
	}
	if got := inj.String(); got != "fault.Injector{down:0 partitions:0}" {
		t.Errorf("String after HealAll = %q", got)
	}
}

// TestBlockedCountsByKind: the injector labels what it blocks with the
// simulator's vocabulary, so both runtimes' slate_fault_injected_total
// series read alike.
func TestBlockedCountsByKind(t *testing.T) {
	v := obs.Default().CounterVec("slate_fault_injected_total",
		"Faults injected into control RPCs, by kind.", "kind")
	outages, cuts := v.With("outage"), v.With("partition")
	o0, c0 := outages.Value(), cuts.Value()

	inj := NewInjector()
	inj.Crash(Global)
	inj.PartitionClusters(topology.West, topology.East)
	inj.blocked(ClusterTarget(topology.West), Global)
	inj.blocked(ProxyTarget("svc", topology.West), ClusterTarget(topology.East))
	inj.blocked(ProxyTarget("svc", topology.West), ClusterTarget(topology.West))
	if got := outages.Value() - o0; got != 1 {
		t.Errorf("outage count = %d, want 1", got)
	}
	if got := cuts.Value() - c0; got != 1 {
		t.Errorf("partition count = %d, want 1", got)
	}
}

func TestScheduleQueries(t *testing.T) {
	s := NewSchedule().
		Outage(Global, 10*time.Second, 20*time.Second).
		Partition(topology.West, topology.East, 15*time.Second, 10*time.Second).
		Flap(Global, 40*time.Second, 3, time.Second, time.Second)

	if s.DownAt(Global, 9*time.Second) {
		t.Error("down before outage start")
	}
	if !s.DownAt(Global, 10*time.Second) {
		t.Error("not down at outage start (inclusive)")
	}
	if s.DownAt(Global, 30*time.Second) {
		t.Error("down at outage end (exclusive)")
	}
	if s.DownAt(ClusterTarget("west"), 15*time.Second) {
		t.Error("outage leaked to another target")
	}

	if !s.PartitionedAt(topology.East, topology.West, 20*time.Second) {
		t.Error("partition query not order-insensitive")
	}
	if s.PartitionedAt(topology.West, topology.West, 20*time.Second) {
		t.Error("cluster partitioned from itself")
	}

	// Flap: down at 40s and 42s..43s, up at 41s..42s.
	if !s.DownAt(Global, 40*time.Second+500*time.Millisecond) {
		t.Error("not down in first flap window")
	}
	if s.DownAt(Global, 41*time.Second+500*time.Millisecond) {
		t.Error("down between flap windows")
	}
	if !s.DownAt(Global, 42*time.Second+500*time.Millisecond) {
		t.Error("not down in second flap window")
	}
	if s.PartitionedAt(topology.West, topology.East, 25*time.Second) {
		t.Error("partitioned at window end (exclusive)")
	}
}

func TestNilScheduleIsInert(t *testing.T) {
	var s *Schedule
	if s.DownAt(Global, 0) || s.PartitionedAt("a", "b", 0) {
		t.Error("nil schedule reported a fault")
	}
}
