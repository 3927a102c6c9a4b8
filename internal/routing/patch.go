package routing

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"github.com/servicelayernetworking/slate/internal/topology"
)

// ErrVersionGap reports that a patch's base version does not match the
// table it is being applied to: one or more intermediate patches were
// lost, and the receiver must request a full resync.
var ErrVersionGap = errors.New("routing: patch base version does not match table")

// Patch is the incremental wire format for rule distribution: instead
// of re-serializing the full table on every control tick, the sender
// ships only the rules that changed since the version the receiver is
// known to hold. A receiver whose table is not at FromVersion rejects
// the patch with ErrVersionGap and asks for a full resync (Full patch).
type Patch struct {
	// FromVersion is the table version this patch applies on top of.
	// Ignored when Full is set.
	FromVersion uint64 `json:"from_version"`
	// Version is the table version after applying the patch.
	Version uint64 `json:"version"`
	// Full marks a resync patch: the receiver discards its table and
	// installs exactly Set (Del is empty).
	Full bool `json:"full,omitempty"`
	// Set holds rules added or changed since FromVersion.
	Set []wireRule `json:"set,omitempty"`
	// Del holds keys removed since FromVersion.
	Del []Key `json:"del,omitempty"`
}

// Empty reports whether the patch changes no rules. An empty non-Full
// patch still carries a version bump (FromVersion != Version means the
// table was republished unchanged).
func (p *Patch) Empty() bool { return !p.Full && len(p.Set) == 0 && len(p.Del) == 0 }

// WireBytes returns the JSON encoding size of the patch — the
// control-plane bytes this patch puts on the wire.
func (p *Patch) WireBytes() int {
	b, err := json.Marshal(p)
	if err != nil {
		return 0
	}
	return len(b)
}

// sameDistribution reports whether two distributions route identically
// (same clusters, weights within 1e-12 — the same threshold Diff uses).
func sameDistribution(a, b Distribution) bool {
	if len(a.clusters) != len(b.clusters) {
		return false
	}
	for i, c := range a.clusters {
		if b.clusters[i] != c || math.Abs(a.weights[i]-b.weights[i]) > 1e-12 {
			return false
		}
	}
	return true
}

// MakePatch computes the patch that transforms old into new. A nil old
// table yields a Full patch (the receiver's state is unknown).
func MakePatch(old, new *Table) *Patch {
	if old == nil {
		return FullPatch(new)
	}
	p := &Patch{FromVersion: old.Version, Version: new.Version}
	for _, k := range new.Keys() {
		nd := new.rules[k]
		if od, ok := old.rules[k]; !ok || !sameDistribution(od, nd) {
			p.Set = append(p.Set, wireRule{
				Service: k.Service, Class: k.Class, Cluster: k.Cluster, Weights: nd.Weights(),
			})
		}
	}
	for _, k := range old.Keys() {
		if _, ok := new.rules[k]; !ok {
			p.Del = append(p.Del, k)
		}
	}
	return p
}

// FullPatch wraps a table as a resync patch: Apply installs it
// regardless of the receiver's current version.
func FullPatch(t *Table) *Patch {
	p := &Patch{Version: t.Version, Full: true}
	for _, k := range t.Keys() {
		p.Set = append(p.Set, wireRule{
			Service: k.Service, Class: k.Class, Cluster: k.Cluster, Weights: t.rules[k].Weights(),
		})
	}
	return p
}

// Apply returns a new table with the patch applied on top of t. Tables
// stay immutable: the receiver swaps the returned snapshot in
// atomically. A non-Full patch whose FromVersion does not match t's
// version returns ErrVersionGap — the caller must request a resync.
func (t *Table) Apply(p *Patch) (*Table, error) {
	if !p.Full && t.Version != p.FromVersion {
		return nil, fmt.Errorf("%w: table at v%d, patch from v%d", ErrVersionGap, t.Version, p.FromVersion)
	}
	if p.Empty() && p.Version == t.Version {
		return t, nil // a keep-alive push: the result would equal t, and tables are immutable
	}
	rules := make(map[Key]Distribution)
	if !p.Full {
		for k, d := range t.rules {
			rules[k] = d
		}
	}
	for _, r := range p.Set {
		// A rule's weights were normalized by its sender: adopt them
		// verbatim, so every receiver routes by the bits it was sent.
		d, err := restoreDistribution(r.Weights)
		if err != nil {
			return nil, fmt.Errorf("routing: patch rule %s[%s]@%s: %w", r.Service, r.Class, r.Cluster, err)
		}
		rules[Key{Service: r.Service, Class: r.Class, Cluster: r.Cluster}] = d
	}
	for _, k := range p.Del {
		delete(rules, k)
	}
	return NewTable(p.Version, rules), nil
}

// Restrict returns the table's rules for one source cluster as a new
// table carrying the same version — the per-cluster shadow the global
// controller diffs against when computing that cluster's next patch.
func (t *Table) Restrict(c topology.ClusterID) *Table {
	return NewTable(t.Version, t.RulesForCluster(c))
}
