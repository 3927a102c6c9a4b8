package forecast

import (
	"encoding/json"
	"math"
	"testing"
)

// TestSnapshotRoundTrip pins that a restored forecaster predicts bit
// for bit what the original would have, including after further
// observations, across all three model families.
func TestSnapshotRoundTrip(t *testing.T) {
	configs := map[string]Config{
		"ewma":     {Alpha: 0.5},
		"holt":     {Alpha: 0.5, Beta: 0.3},
		"seasonal": {Alpha: 0.5, Beta: 0.2, Gamma: 0.3, SeasonLength: 4},
	}
	keys := []Key{
		{Class: "default", Cluster: "west"},
		{Class: "default", Cluster: "east"},
		{Class: "batch", Cluster: "west"},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			a := New(cfg)
			for w := 0; w < 13; w++ {
				for i, k := range keys {
					if w%3 == 2 && i == 1 {
						continue // exercise the EndWindow implicit zero
					}
					a.Observe(k, 100+float64(w*17+i*29)/3)
				}
				a.EndWindow()
			}

			body, err := json.Marshal(a.Snapshot())
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var snap Snapshot
			if err := json.Unmarshal(body, &snap); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			b := New(cfg)
			b.Restore(&snap)

			if a.Len() != b.Len() {
				t.Fatalf("restored %d keys, want %d", b.Len(), a.Len())
			}
			for _, k := range keys {
				for h := 1; h <= 3; h++ {
					pa, pb := predict(a, k, h), predict(b, k, h)
					if math.Float64bits(pa) != math.Float64bits(pb) {
						t.Fatalf("%v h=%d: restored predicts %v, original %v", k, h, pb, pa)
					}
				}
			}
			// Divergence-free under further identical observations.
			for w := 0; w < 5; w++ {
				for _, k := range keys {
					a.Observe(k, 90-float64(w))
					b.Observe(k, 90-float64(w))
				}
				a.EndWindow()
				b.EndWindow()
			}
			for _, k := range keys {
				if pa, pb := predict(a, k, 1), predict(b, k, 1); math.Float64bits(pa) != math.Float64bits(pb) {
					t.Fatalf("%v diverged after restore: %v vs %v", k, pb, pa)
				}
			}
		})
	}
}

// TestSnapshotSeasonMismatch pins the config-change rule: keys whose
// seasonal state does not fit the restoring forecaster's SeasonLength
// are dropped, not mangled.
func TestSnapshotSeasonMismatch(t *testing.T) {
	a := New(Config{Alpha: 0.5, Gamma: 0.3, SeasonLength: 4})
	k := Key{Class: "default", Cluster: "west"}
	for w := 0; w < 9; w++ {
		a.Observe(k, 50)
		a.EndWindow()
	}
	b := New(Config{Alpha: 0.5}) // no seasonality configured
	b.Restore(a.Snapshot())
	if b.Len() != 0 {
		t.Fatalf("restored %d keys across a season-length change, want 0", b.Len())
	}
	if p := predict(b, k, 1); p != 0 { //slate:nolint floatcmp -- a dropped key returns the exact zero value, never a computed float
		t.Fatalf("dropped key predicts %v, want 0", p)
	}
}

// TestSnapshotDeterministicEncoding pins that two snapshots of the same
// state marshal to identical bytes (keys sorted, not map order).
func TestSnapshotDeterministicEncoding(t *testing.T) {
	f := New(Defaults())
	for i := 0; i < 26; i++ {
		f.Observe(Key{Class: string(rune('a' + i)), Cluster: "west"}, float64(i))
	}
	f.EndWindow()
	b1, err := json.Marshal(f.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(f.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("snapshot encoding is not deterministic")
	}
}
