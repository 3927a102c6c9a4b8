package routing

import (
	"encoding/json"
	"math"
	"testing"

	"github.com/servicelayernetworking/slate/internal/topology"
)

// TestTableJSONRoundTripBitExact pins that a marshal/unmarshal round
// trip reproduces every rule weight bit for bit. Warm-state
// snapshot/restore republishes restored tables and asserts bit-identity
// against the never-restarted controller, so the wire codec must not
// renormalize already-normalized weights.
// bitExactWeights are 1/3-ish splits whose normalized weights do not
// sum to exactly 1.0: the case plain renormalization perturbs.
var bitExactWeights = []map[topology.ClusterID]float64{
	{"a": 1, "b": 1, "c": 1},
	{"a": 0.1, "b": 0.2, "c": 0.7},
	{"a": 1e-9, "b": 3},
	{"a": 1.0 / 3, "b": 1.0 / 7, "c": 1.0 / 11, "d": 1.0 / 13},
}

func TestTableJSONRoundTripBitExact(t *testing.T) {
	rules := make(map[Key]Distribution)
	for i, w := range bitExactWeights {
		d, err := NewDistribution(w)
		if err != nil {
			t.Fatalf("NewDistribution(%d): %v", i, err)
		}
		rules[Key{Service: "svc", Class: string(rune('a' + i)), Cluster: "a"}] = d
	}
	tab := NewTable(42, rules)

	body, err := json.Marshal(tab)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got Table
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.Version != tab.Version {
		t.Fatalf("version: got %d want %d", got.Version, tab.Version)
	}
	for _, k := range tab.Keys() {
		want, _ := tab.Get(k)
		have, ok := got.Get(k)
		if !ok {
			t.Fatalf("rule %v missing after round trip", k)
		}
		wm, hm := want.Weights(), have.Weights()
		if len(wm) != len(hm) {
			t.Fatalf("rule %v: cluster count %d != %d", k, len(hm), len(wm))
		}
		for c, w := range wm {
			if math.Float64bits(hm[c]) != math.Float64bits(w) {
				t.Fatalf("rule %v cluster %s: weight %v (bits %x) != %v (bits %x) after round trip",
					k, c, hm[c], math.Float64bits(hm[c]), w, math.Float64bits(w))
			}
		}
	}
	body2, err := json.Marshal(&got)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if string(body2) != string(body) {
		t.Fatalf("round trip is not a fixed point:\n%s\nvs\n%s", body, body2)
	}
}

// TestTableJSONUnnormalizedWeights pins the fallback: hand-written JSON
// with unnormalized weights still decodes (via the normalizing
// constructor) rather than being trusted verbatim.
func TestTableJSONUnnormalizedWeights(t *testing.T) {
	raw := `{"version":1,"rules":[{"service":"s","class":"*","cluster":"a","weights":{"a":2,"b":2}}]}`
	var tab Table
	if err := json.Unmarshal([]byte(raw), &tab); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	d, ok := tab.Get(Key{Service: "s", Class: "*", Cluster: "a"})
	if !ok {
		t.Fatal("rule missing")
	}
	if w := d.Weight("a"); math.Abs(w-0.5) > 1e-12 {
		t.Fatalf("weight a = %v, want 0.5 (normalized)", w)
	}
}
