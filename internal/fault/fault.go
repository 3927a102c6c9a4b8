// Package fault is a seedable, deterministic fault injector for the
// SLATE control plane. The paper's Challenges section (§4) argues that
// a service-layer TE system is judged under an imperfect control plane
// — stale telemetry, slow reaction, controller unavailability — not in
// steady state. This package makes those conditions reproducible:
//
//   - Injector holds live fault state (crashed components, partitioned
//     clusters, probabilistic drop/delay/error rules) and decides, per
//     control RPC, what happens to it. All probabilistic decisions draw
//     from per-edge sim.RNG streams derived from one seed, so a fault
//     sequence replays identically across runs regardless of how
//     concurrent RPCs interleave.
//   - Transport wraps an http.RoundTripper so the Agent, Cluster and
//     Global clients (and the emulation mesh) suffer the injected
//     faults on the wire, exercising the real retry/degradation code.
//   - Schedule is a declarative virtual-time fault timeline (outages,
//     partitions, flapping) interpreted by the discrete-event simulator
//     and replayed onto an Injector by the emulation.
package fault

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/servicelayernetworking/slate/internal/obs"
	"github.com/servicelayernetworking/slate/internal/sim"
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

// Rule is one probabilistic fault applied to RPCs matching its
// From/To targets (empty matches any). Probabilities are evaluated
// independently per RPC from the edge's derived stream.
type Rule struct {
	From, To Target
	// Drop is the probability the RPC fails with a transport error
	// before reaching the peer (a lost/refused connection).
	Drop float64
	// Fail is the probability the RPC is answered with a synthesized
	// 503 (the peer is up but erroring).
	Fail float64
	// Delay is added latency before the RPC is forwarded; Jitter
	// scales it uniformly in [1-Jitter, 1+Jitter].
	Delay  time.Duration
	Jitter float64
}

func (r Rule) matches(from, to Target) bool {
	return (r.From == "" || r.From == from) && (r.To == "" || r.To == to)
}

// Decision is the injector's verdict for one RPC.
type Decision struct {
	// Drop fails the RPC with a transport error (wrapping ErrInjected).
	Drop bool
	// Fail answers the RPC with a synthesized 503 without forwarding.
	Fail bool
	// Delay is injected latency to pay before forwarding.
	Delay time.Duration
}

type clusterPair [2]topology.ClusterID

func orderedPair(a, b topology.ClusterID) clusterPair {
	if b < a {
		a, b = b, a
	}
	return clusterPair{a, b}
}

// Injector holds live fault state and decides the fate of control
// RPCs. Safe for concurrent use. Probabilistic decisions are
// deterministic per (from, to) edge: each edge owns a sim.RNG stream
// derived from the injector's seed stream, so the i-th RPC on an edge
// sees the same draw in every run even when edges interleave
// differently under real concurrency.
type Injector struct {
	mu      sync.Mutex
	rng     *sim.RNG
	streams map[string]*sim.RNG
	down    map[Target]bool
	cuts    map[clusterPair]bool
	rules   []Rule

	// Injected-event counters by kind, cached so Decide's hot path is a
	// single atomic increment per verdict.
	mCrash, mPartition, mDrop, mFail, mDelay *obs.Counter
}

// NewInjector returns an injector drawing from rng (nil seeds a zero
// stream). Injected events count into obs.Default() under
// slate_fault_injected_total{kind}.
func NewInjector(rng *sim.RNG) *Injector {
	if rng == nil {
		rng = sim.NewRNG(0)
	}
	v := obs.Default().CounterVec("slate_fault_injected_total",
		"Faults injected into control RPCs, by kind.", "kind")
	return &Injector{
		rng:        rng,
		streams:    make(map[string]*sim.RNG),
		down:       make(map[Target]bool),
		cuts:       make(map[clusterPair]bool),
		mCrash:     v.With("crash"),
		mPartition: v.With("partition"),
		mDrop:      v.With("drop"),
		mFail:      v.With("fail"),
		mDelay:     v.With("delay"),
	}
}

// AddRule installs a probabilistic fault rule.
func (i *Injector) AddRule(r Rule) {
	i.mu.Lock()
	i.rules = append(i.rules, r)
	i.mu.Unlock()
}

// ClearRules removes every probabilistic rule (crashes and partitions
// are unaffected).
func (i *Injector) ClearRules() {
	i.mu.Lock()
	i.rules = nil
	i.mu.Unlock()
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

// HealAll clears every crash and partition (rules stay).
func (i *Injector) HealAll() {
	i.mu.Lock()
	i.down = make(map[Target]bool)
	i.cuts = make(map[clusterPair]bool)
	i.mu.Unlock()
}

// Partitioned reports whether the clusters of from and to are
// currently cut off from each other.
func (i *Injector) Partitioned(from, to Target) bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.partitionedLocked(from, to)
}

func (i *Injector) partitionedLocked(from, to Target) bool {
	ca, cb := ClusterOf(from), ClusterOf(to)
	if ca == "" || cb == "" || ca == cb {
		return false
	}
	return i.cuts[orderedPair(ca, cb)]
}

// Decide returns the fate of one RPC from -> to. Crashes and
// partitions drop deterministically; rules draw from the edge's
// stream. Rule draws happen in installation order with a fixed draw
// count per rule, keeping edge streams aligned across runs.
func (i *Injector) Decide(from, to Target) Decision {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.down[to] || i.down[from] {
		i.mCrash.Inc()
		return Decision{Drop: true}
	}
	if i.partitionedLocked(from, to) {
		i.mPartition.Inc()
		return Decision{Drop: true}
	}
	var d Decision
	for _, r := range i.rules {
		if !r.matches(from, to) {
			continue
		}
		stream := i.edgeStreamLocked(from, to)
		// Fixed three draws per matching rule per RPC: the stream stays
		// aligned whatever the rule outcome.
		uDrop, uFail, uJit := stream.Float64(), stream.Float64(), stream.Float64()
		if r.Drop > 0 && uDrop < r.Drop {
			if !d.Drop {
				i.mDrop.Inc()
			}
			d.Drop = true
		}
		if r.Fail > 0 && uFail < r.Fail {
			if !d.Fail {
				i.mFail.Inc()
			}
			d.Fail = true
		}
		if r.Delay > 0 {
			if d.Delay == 0 {
				i.mDelay.Inc()
			}
			scale := 1.0
			if r.Jitter > 0 {
				scale = 1 + r.Jitter*(2*uJit-1)
			}
			d.Delay += time.Duration(float64(r.Delay) * scale)
		}
	}
	return d
}

func (i *Injector) edgeStreamLocked(from, to Target) *sim.RNG {
	key := string(from) + "->" + string(to)
	s, ok := i.streams[key]
	if !ok {
		s = i.rng.DeriveNamed(key)
		i.streams[key] = s
	}
	return s
}

// Sync replaces the injector's crash and partition state with the
// schedule's state at virtual time now. Probabilistic rules installed
// by hand are preserved. The emulation mesh calls this as wall-clock
// time advances to replay a declarative fault timeline.
func (i *Injector) Sync(s *Schedule, now time.Duration) {
	down := make(map[Target]bool)
	cuts := make(map[clusterPair]bool)
	for _, ev := range s.EventsAt(now) {
		switch ev.Kind {
		case OutageEvent:
			down[ev.Target] = true
		case PartitionEvent:
			cuts[orderedPair(ev.A, ev.B)] = true
		}
	}
	i.mu.Lock()
	i.down = down
	i.cuts = cuts
	i.mu.Unlock()
}

// String summarizes live fault state for logs.
func (i *Injector) String() string {
	i.mu.Lock()
	defer i.mu.Unlock()
	return fmt.Sprintf("fault.Injector{down:%d partitions:%d rules:%d}",
		len(i.down), len(i.cuts), len(i.rules))
}
