// Package topology models the multi-cluster deployment substrate: a set
// of geo-distributed clusters, the inter-cluster network latency matrix,
// and the inter-cluster egress bandwidth price matrix.
//
// The paper's evaluation runs on a real Google Cloud topology with
// clusters in Oregon (OR), Utah (UT), Iowa (IOW) and South Carolina (SC)
// and tc-emulated median VM-to-VM RTTs. GCPTopology reproduces exactly
// those numbers.
package topology

import (
	"cmp"
	"fmt"
	"slices"
	"time"
)

// ClusterID names a cluster. IDs are free-form but must be unique within
// a Topology.
type ClusterID string

// Cluster describes one Kubernetes-style cluster: an isolated failure
// domain with its own replica pools.
type Cluster struct {
	ID     ClusterID
	Region string // human-readable region, e.g. "us-west1"
	// Zone multiplicity or node counts are not modeled: SLATE's routing
	// decisions are at cluster granularity, and intra-cluster balancing
	// is delegated to standard load balancing (paper §3.3).
}

// Topology is an immutable set of clusters plus pairwise network
// characteristics. Build one with NewBuilder (or a preset) and share it
// freely; all methods are safe for concurrent use.
type Topology struct {
	clusters []Cluster
	index    map[ClusterID]int
	rtt      [][]time.Duration // symmetric, zero diagonal
	egress   [][]float64       // $ per GB, zero diagonal
}

// Builder accumulates clusters and links for a Topology.
type Builder struct {
	clusters []Cluster
	rtts     map[[2]ClusterID]time.Duration
	egress   map[[2]ClusterID]float64
	defEgr   float64
	err      error
}

// NewBuilder returns an empty topology builder. defaultEgressPerGB is
// applied to any cluster pair without an explicit SetEgressCost.
func NewBuilder(defaultEgressPerGB float64) *Builder {
	return &Builder{
		rtts:   make(map[[2]ClusterID]time.Duration),
		egress: make(map[[2]ClusterID]float64),
		defEgr: defaultEgressPerGB,
	}
}

// AddCluster registers a cluster.
func (b *Builder) AddCluster(id ClusterID, region string) *Builder {
	for _, c := range b.clusters {
		if c.ID == id {
			b.fail(fmt.Errorf("duplicate cluster %q", id))
			return b
		}
	}
	b.clusters = append(b.clusters, Cluster{ID: id, Region: region})
	return b
}

// SetRTT declares the round-trip network latency between two clusters.
// The matrix is symmetric; declaring either direction suffices.
func (b *Builder) SetRTT(a, c ClusterID, rtt time.Duration) *Builder {
	if rtt < 0 {
		b.fail(fmt.Errorf("negative RTT %v between %q and %q", rtt, a, c))
		return b
	}
	b.rtts[key(a, c)] = rtt
	return b
}

// SetEgressCost declares the egress bandwidth price in dollars per GB for
// traffic between two clusters (symmetric).
func (b *Builder) SetEgressCost(a, c ClusterID, perGB float64) *Builder {
	if perGB < 0 {
		b.fail(fmt.Errorf("negative egress cost between %q and %q", a, c))
		return b
	}
	b.egress[key(a, c)] = perGB
	return b
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

func key(a, c ClusterID) [2]ClusterID {
	if a > c {
		a, c = c, a
	}
	return [2]ClusterID{a, c}
}

// Build validates the accumulated data and returns the topology. Every
// distinct cluster pair must have an RTT.
func (b *Builder) Build() (*Topology, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.clusters) == 0 {
		return nil, fmt.Errorf("topology has no clusters")
	}
	t := &Topology{
		clusters: append([]Cluster(nil), b.clusters...),
		index:    make(map[ClusterID]int, len(b.clusters)),
	}
	n := len(t.clusters)
	for i, c := range t.clusters {
		t.index[c.ID] = i
	}
	t.rtt = make([][]time.Duration, n)
	t.egress = make([][]float64, n)
	for i := range t.rtt {
		t.rtt[i] = make([]time.Duration, n)
		t.egress[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, c := t.clusters[i].ID, t.clusters[j].ID
			rtt, ok := b.rtts[key(a, c)]
			if !ok {
				return nil, fmt.Errorf("missing RTT between %q and %q", a, c)
			}
			t.rtt[i][j], t.rtt[j][i] = rtt, rtt
			e, ok := b.egress[key(a, c)]
			if !ok {
				e = b.defEgr
			}
			t.egress[i][j], t.egress[j][i] = e, e
		}
	}
	return t, nil
}

// MustBuild is Build that panics on error; for package-level presets and
// tests.
func (b *Builder) MustBuild() *Topology {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

// ClusterIDs returns all cluster IDs in registration order.
func (t *Topology) ClusterIDs() []ClusterID {
	ids := make([]ClusterID, len(t.clusters))
	for i, c := range t.clusters {
		ids[i] = c.ID
	}
	return ids
}

// Has reports whether id names a cluster in the topology.
func (t *Topology) Has(id ClusterID) bool {
	_, ok := t.index[id]
	return ok
}

// NumClusters returns the number of clusters.
func (t *Topology) NumClusters() int { return len(t.clusters) }

// RTT returns the round-trip network latency between two clusters (zero
// for a cluster to itself). Unknown IDs panic: topologies are static and
// an unknown ID is a configuration bug.
func (t *Topology) RTT(a, b ClusterID) time.Duration {
	return t.rtt[t.mustIndex(a)][t.mustIndex(b)]
}

// OneWay returns the one-way network delay between two clusters,
// approximated as RTT/2.
func (t *Topology) OneWay(a, b ClusterID) time.Duration {
	return t.RTT(a, b) / 2
}

// EgressCostPerGB returns the egress price in $/GB between two clusters
// (zero within a cluster).
func (t *Topology) EgressCostPerGB(a, b ClusterID) float64 {
	return t.egress[t.mustIndex(a)][t.mustIndex(b)]
}

// EgressCost returns the dollar cost of moving n bytes between clusters.
func (t *Topology) EgressCost(a, b ClusterID, bytes int64) float64 {
	const gb = 1 << 30
	return t.EgressCostPerGB(a, b) * float64(bytes) / gb
}

func (t *Topology) mustIndex(id ClusterID) int {
	i, ok := t.index[id]
	if !ok {
		panic(fmt.Sprintf("topology: unknown cluster %q", id))
	}
	return i
}

// Nearest returns the clusters ordered by ascending RTT from the given
// cluster, excluding the cluster itself. This is the order in which the
// Waterfall baseline considers spillover targets.
func (t *Topology) Nearest(from ClusterID) []ClusterID {
	i := t.mustIndex(from)
	type pair struct {
		id  ClusterID
		rtt time.Duration
	}
	ps := make([]pair, 0, len(t.clusters)-1)
	for j, c := range t.clusters {
		if j == i {
			continue
		}
		ps = append(ps, pair{c.ID, t.rtt[i][j]})
	}
	slices.SortStableFunc(ps, func(a, b pair) int {
		return cmp.Or(cmp.Compare(a.rtt, b.rtt), cmp.Compare(a.id, b.id))
	})
	out := make([]ClusterID, len(ps))
	for k, p := range ps {
		out[k] = p.id
	}
	return out
}

// Paper GCP cluster IDs.
const (
	OR  ClusterID = "or"  // us-west1 (Oregon)
	UT  ClusterID = "ut"  // us-west3 (Utah)
	IOW ClusterID = "iow" // us-central1 (Iowa)
	SC  ClusterID = "sc"  // us-east1 (South Carolina)
)

// DefaultEgressPerGB is a typical inter-region egress price within a
// cloud provider in North America ($0.01/GB, GCP's us-to-us tier).
const DefaultEgressPerGB = 0.01

// GCPTopology returns the four-cluster Google Cloud topology from the
// paper (§4.2) with its measured median inter-region VM-to-VM RTTs:
// OR-UT 30ms, UT-IOW 20ms, IOW-SC 35ms, OR-SC 66ms, OR-IOW 37ms. The
// UT-SC latency is not reported in the paper; we use 52ms, consistent
// with the triangle UT-IOW-SC and public GCP measurements.
func GCPTopology() *Topology {
	return NewBuilder(DefaultEgressPerGB).
		AddCluster(OR, "us-west1").
		AddCluster(UT, "us-west3").
		AddCluster(IOW, "us-central1").
		AddCluster(SC, "us-east1").
		SetRTT(OR, UT, 30*time.Millisecond).
		SetRTT(UT, IOW, 20*time.Millisecond).
		SetRTT(IOW, SC, 35*time.Millisecond).
		SetRTT(OR, SC, 66*time.Millisecond).
		SetRTT(OR, IOW, 37*time.Millisecond).
		SetRTT(UT, SC, 52*time.Millisecond).
		MustBuild()
}

// TwoClusters returns a west/east pair with the given RTT, the topology
// used by the paper's "how much to route" experiments (§4.1, Fig. 4/6a).
func TwoClusters(rtt time.Duration) *Topology {
	return NewBuilder(DefaultEgressPerGB).
		AddCluster(West, "us-west").
		AddCluster(East, "us-east").
		SetRTT(West, East, rtt).
		MustBuild()
}

// Cluster IDs for TwoClusters.
const (
	West ClusterID = "west"
	East ClusterID = "east"
)
