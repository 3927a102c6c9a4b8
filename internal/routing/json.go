package routing

import (
	"encoding/json"
	"fmt"
	"math"

	"github.com/servicelayernetworking/slate/internal/topology"
)

// wireRule is the JSON form of one routing rule.
type wireRule struct {
	Service string                         `json:"service"`
	Class   string                         `json:"class"`
	Cluster topology.ClusterID             `json:"cluster"`
	Weights map[topology.ClusterID]float64 `json:"weights"`
}

// wireTable is the JSON form of a Table.
type wireTable struct {
	Version uint64     `json:"version"`
	Rules   []wireRule `json:"rules"`
}

// MarshalJSON encodes the table for the control-plane wire protocol.
func (t *Table) MarshalJSON() ([]byte, error) {
	wt := wireTable{Version: t.Version}
	for _, k := range t.Keys() {
		d := t.rules[k]
		wt.Rules = append(wt.Rules, wireRule{
			Service: k.Service,
			Class:   k.Class,
			Cluster: k.Cluster,
			Weights: d.Weights(),
		})
	}
	return json.Marshal(wt)
}

// UnmarshalJSON decodes a table from the control-plane wire protocol.
func (t *Table) UnmarshalJSON(data []byte) error {
	var wt wireTable
	if err := json.Unmarshal(data, &wt); err != nil {
		return err
	}
	rules := make(map[Key]Distribution, len(wt.Rules))
	for _, r := range wt.Rules {
		d, err := restoreDistribution(r.Weights)
		if err != nil {
			return fmt.Errorf("routing: rule %s[%s]@%s: %w", r.Service, r.Class, r.Cluster, err)
		}
		rules[Key{Service: r.Service, Class: r.Class, Cluster: r.Cluster}] = d
	}
	t.Version = wt.Version
	t.rules = rules
	return nil
}

// restoreDistribution rebuilds a distribution from wire weights. Wire
// weights come from Weights() and are therefore already normalized;
// they are adopted verbatim so a marshal/unmarshal round trip is
// bit-exact — renormalizing would perturb the last ulp whenever the
// float sum of normalized weights lands off 1.0, and the warm-state
// snapshot/restore path depends on a restored leader republishing
// bit-identical tables. Weights that are not normalized (hand-written
// JSON, non-SLATE peers) are normalized as NewDistribution would.
func restoreDistribution(weights map[topology.ClusterID]float64) (Distribution, error) {
	clusters, ws, err := sortedWeights(weights)
	if err != nil {
		return Distribution{}, err
	}
	var sum float64
	for _, w := range ws {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		return NewSortedDistribution(clusters, ws)
	}
	return Distribution{clusters: clusters, weights: ws}, nil
}
