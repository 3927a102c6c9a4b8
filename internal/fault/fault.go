// Package fault injects the two faults SLATE's reliability experiments
// exercise: a component outage and a cluster partition. The paper's
// Challenges section (§4) argues that a service-layer TE system is
// judged under an imperfect control plane — stale telemetry, slow
// reaction, controller unavailability — not in steady state. This
// package makes those conditions reproducible:
//
//   - Injector holds live fault state (crashed components, partitioned
//     clusters) for the emulation, which drives it with Crash/Restart
//     and PartitionClusters/HealClusters.
//   - Transport wraps an http.RoundTripper so the Agent, Cluster and
//     Global clients (and the emulation mesh) suffer the injected
//     faults on the wire, exercising the real retry/degradation code.
//   - Schedule is a declarative virtual-time fault timeline (outages,
//     partitions, flapping) interpreted by the discrete-event simulator.
//
// Both runtimes count faults into slate_fault_injected_total{kind} with
// kind "outage" or "partition".
package fault

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"github.com/servicelayernetworking/slate/internal/obs"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// Target names one control-plane component. The naming convention
// embeds cluster membership so cluster-level partitions can be applied
// to every component inside the cluster: "global",
// "cluster:<id>", "proxy:<service>@<cluster>".
type Target string

// Global is the global controller's target name.
const Global Target = "global"

// GlobalReplica names one replica of a replicated global controller
// (replica 0 is "global:0", and so on); an unreplicated controller is
// Global.
func GlobalReplica(i int) Target {
	return Target("global:" + strconv.Itoa(i))
}

// ClusterTarget names a cluster controller.
func ClusterTarget(id topology.ClusterID) Target {
	return Target("cluster:" + string(id))
}

// ProxyTarget names a proxy sidecar.
func ProxyTarget(service string, cluster topology.ClusterID) Target {
	return Target("proxy:" + service + "@" + string(cluster))
}

// ClusterOf extracts the cluster a target lives in, or "" for the
// global controller and unrecognized names.
func ClusterOf(t Target) topology.ClusterID {
	s := string(t)
	if rest, ok := strings.CutPrefix(s, "cluster:"); ok {
		return topology.ClusterID(rest)
	}
	if rest, ok := strings.CutPrefix(s, "proxy:"); ok {
		if _, cl, ok := strings.Cut(rest, "@"); ok {
			return topology.ClusterID(cl)
		}
	}
	return ""
}

// ErrInjected is the sentinel wrapped by every injected transport
// failure, so hardened clients (and tests) can tell injected faults
// from real ones with errors.Is.
var ErrInjected = errors.New("fault: injected failure")

type clusterPair [2]topology.ClusterID

func orderedPair(a, b topology.ClusterID) clusterPair {
	if b < a {
		a, b = b, a
	}
	return clusterPair{a, b}
}

// Injector holds live fault state and decides which control RPCs are
// blocked. Safe for concurrent use.
type Injector struct {
	mu   sync.Mutex
	down map[Target]bool
	cuts map[clusterPair]bool

	// Blocked-RPC counters by kind, cached so blocked's hot path is a
	// single atomic increment.
	mOutage, mPartition *obs.Counter
}

// NewInjector returns an injector with no faults. Blocked RPCs count
// into obs.Default() under slate_fault_injected_total{kind}.
func NewInjector() *Injector {
	v := obs.Default().CounterVec("slate_fault_injected_total",
		"Faults injected into control RPCs, by kind.", "kind")
	return &Injector{
		down:       make(map[Target]bool),
		cuts:       make(map[clusterPair]bool),
		mOutage:    v.With("outage"),
		mPartition: v.With("partition"),
	}
}

// Crash marks a component down: every RPC to or from it drops until
// Restart.
func (i *Injector) Crash(t Target) {
	i.mu.Lock()
	i.down[t] = true
	i.mu.Unlock()
}

// Restart brings a crashed component back.
func (i *Injector) Restart(t Target) {
	i.mu.Lock()
	delete(i.down, t)
	i.mu.Unlock()
}

// IsDown reports whether the component is crashed.
func (i *Injector) IsDown(t Target) bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.down[t]
}

// PartitionClusters blocks every RPC between components of cluster a
// and components of cluster b (both directions) until HealClusters.
// The global controller lives outside every cluster and is unaffected.
func (i *Injector) PartitionClusters(a, b topology.ClusterID) {
	i.mu.Lock()
	i.cuts[orderedPair(a, b)] = true
	i.mu.Unlock()
}

// HealClusters removes a cluster partition.
func (i *Injector) HealClusters(a, b topology.ClusterID) {
	i.mu.Lock()
	delete(i.cuts, orderedPair(a, b))
	i.mu.Unlock()
}

// HealAll clears every crash and partition.
func (i *Injector) HealAll() {
	i.mu.Lock()
	i.down = make(map[Target]bool)
	i.cuts = make(map[clusterPair]bool)
	i.mu.Unlock()
}

// blocked reports whether one RPC from -> to is dropped: either end is
// crashed, or their clusters are cut off from each other.
func (i *Injector) blocked(from, to Target) bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.down[to] || i.down[from] {
		i.mOutage.Inc()
		return true
	}
	ca, cb := ClusterOf(from), ClusterOf(to)
	if ca != "" && cb != "" && ca != cb && i.cuts[orderedPair(ca, cb)] {
		i.mPartition.Inc()
		return true
	}
	return false
}

// String summarizes live fault state for logs.
func (i *Injector) String() string {
	i.mu.Lock()
	defer i.mu.Unlock()
	return fmt.Sprintf("fault.Injector{down:%d partitions:%d}", len(i.down), len(i.cuts))
}
