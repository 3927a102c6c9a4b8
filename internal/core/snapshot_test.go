package core

import (
	"encoding/json"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/forecast"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// snapshotTestPair builds a warm controller A (four ticks of drifting
// demand) and a cold controller B restored from A's snapshot after a
// JSON round trip — the exact path a follower replica takes over the
// control plane's GET /v1/snapshot.
func snapshotTestPair(t *testing.T, cfg ControllerConfig) (a, b *Controller, app *appgraph.App) {
	t.Helper()
	top := topology.TwoClusters(40 * time.Millisecond)
	app = starTestApp(3, appgraph.ReplicaPool{Replicas: 2, Concurrency: 64},
		appgraph.ReplicaPool{Replicas: 2, Concurrency: 4}, topology.West, topology.East)

	a, err := NewController(top, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, scale := range []float64{1, 1.2, 0.9, 1} {
		if _, err := a.Tick(starStats(app, scale), time.Second); err != nil {
			t.Fatalf("warming tick %d: %v", i, err)
		}
	}

	body, err := json.Marshal(a.Snapshot())
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	var snap ControllerSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("unmarshal snapshot: %v", err)
	}
	b, err = NewController(top, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(&snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	return a, b, app
}

// starStats builds one telemetry window for the star app: per-class
// frontend arrivals, asymmetric so the shards genuinely differ.
func starStats(app *appgraph.App, scale float64) []telemetry.WindowStats {
	var out []telemetry.WindowStats
	for i, cl := range app.Classes {
		west := (500 + 120*float64(i)) * scale
		east := (80 + 15*float64(i)) * scale
		out = append(out, frontendStats(app, cl.Name, west, east, 30*time.Millisecond)...)
	}
	return out
}

// requireSameTable asserts two tables are bit-identical (same rules,
// same weights to the last ulp), via the canonical JSON encoding.
func requireSameTable(t *testing.T, ctx string, want, got interface{ MarshalJSON() ([]byte, error) }) {
	t.Helper()
	wb, err := want.MarshalJSON()
	if err != nil {
		t.Fatalf("%s: marshal want: %v", ctx, err)
	}
	gb, err := got.MarshalJSON()
	if err != nil {
		t.Fatalf("%s: marshal got: %v", ctx, err)
	}
	if string(wb) != string(gb) {
		t.Fatalf("%s: tables differ\noriginal: %s\nrestored: %s", ctx, wb, gb)
	}
}

// TestSnapshotRestoreBitIdentical is the failover contract: a restored
// controller publishes bit-identical tables and serves its first
// post-restore tick warm (no cold solves), across the one-shard,
// decomposed, robust, search-race, and predictive configurations.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	configs := map[string]ControllerConfig{
		"one-shard":  {DemandSmoothing: 1},
		"decomposed": {DemandSmoothing: 1, Decompose: true},
		"robust":     {DemandSmoothing: 1, Decompose: true, Optimizer: Config{DemandMargin: 0.25, Budget: 1}},
		"search":     {DemandSmoothing: 1, Decompose: true, Search: true},
		"predictive": {DemandSmoothing: 1, Decompose: true, Forecast: forecast.Defaults()},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			a, b, app := snapshotTestPair(t, cfg)
			requireSameTable(t, "restored state", a.Table(), b.Table())
			if a.Version() != b.Version() {
				t.Fatalf("version: original %d, restored %d", a.Version(), b.Version())
			}

			// First post-restore tick repeats the last window: every shard's
			// fingerprint is clean, so every solve is skipped outright —
			// zero cold solves.
			ta, err := a.Tick(starStats(app, 1), time.Second)
			if err != nil {
				t.Fatalf("original tick: %v", err)
			}
			tb, err := b.Tick(starStats(app, 1), time.Second)
			if err != nil {
				t.Fatalf("restored tick: %v", err)
			}
			requireSameTable(t, "first post-restore tick", ta, tb)
			st := b.OptimizerStats()
			if st.ColdSolves != 0 {
				t.Fatalf("first post-restore tick ran %d cold solves, want 0 (stats %+v)", st.ColdSolves, st)
			}
			if st.SkippedSolves == 0 {
				t.Fatalf("clean-input tick skipped no shards (stats %+v)", st)
			}

			// Second post-restore tick drifts demand by 2% — the
			// steady-state regime warm starts are built for (larger jumps
			// push the old basis primal-infeasible, the solver's designed
			// cold-fallback path, original and restored alike). Dirty
			// shards must re-solve warm from the restored bases — still
			// zero cold solves, still bit-identical.
			ta, err = a.Tick(starStats(app, 1.02), time.Second)
			if err != nil {
				t.Fatalf("original dirty tick: %v", err)
			}
			tb, err = b.Tick(starStats(app, 1.02), time.Second)
			if err != nil {
				t.Fatalf("restored dirty tick: %v", err)
			}
			requireSameTable(t, "dirty post-restore tick", ta, tb)
			st = b.OptimizerStats()
			if st.ColdSolves != 0 {
				t.Fatalf("dirty post-restore tick ran %d cold solves, want 0 (stats %+v)", st.ColdSolves, st)
			}
			if cfg.Search && st.SearchSolves+st.SimplexWins == 0 {
				t.Fatalf("search race did not arm from the restored incumbent (stats %+v)", st)
			}
			if st.SubSolves == 0 || st.WarmSolves+st.SearchSolves == 0 {
				t.Fatalf("dirty tick solved no shard warm (stats %+v)", st)
			}
		})
	}
}

// TestSnapshotRestoreShapeMismatch pins that a snapshot from a
// different shard count or snapshot format (including format 1, which a
// pre-upgrade leader would serve) is rejected, not half-applied: of a
// foreign format only the version counter is adopted.
func TestSnapshotRestoreShapeMismatch(t *testing.T) {
	top := topology.TwoClusters(40 * time.Millisecond)
	app := starTestApp(2, appgraph.ReplicaPool{Replicas: 2, Concurrency: 64},
		appgraph.ReplicaPool{Replicas: 2, Concurrency: 4}, topology.West, topology.East)
	mono, err := NewController(top, app, ControllerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewController(top, app, ControllerConfig{Decompose: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Restore(mono.Snapshot()); err == nil {
		t.Fatal("restoring a one-shard snapshot into a decomposed controller did not fail")
	}
	if err := mono.Restore(dec.Snapshot()); err == nil {
		t.Fatal("restoring a decomposed snapshot into a one-shard controller did not fail")
	}
	for _, format := range []int{1, SnapshotFormat + 1} {
		bad := dec.Snapshot()
		bad.Format = format
		bad.Version = mono.Version() + 5
		bad.Demand = Demand{"ca": {topology.West: 1}}
		if err := mono.Restore(bad); err == nil {
			t.Fatalf("restoring snapshot format %d did not fail", format)
		}
		if mono.Version() != bad.Version || len(mono.Demand()) != 0 {
			t.Fatalf("format %d: version %d demand %v, want only the version counter (%d) adopted",
				format, mono.Version(), mono.Demand(), bad.Version)
		}
	}
}

// TestSnapshotEncodingDeterministic pins that snapshotting the same
// state twice yields identical bytes (the control plane compares and
// caches encoded snapshots).
func TestSnapshotEncodingDeterministic(t *testing.T) {
	a, _, _ := snapshotTestPair(t, ControllerConfig{DemandSmoothing: 1, Decompose: true, Forecast: forecast.Defaults()})
	b1, err := json.Marshal(a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("snapshot encoding is not deterministic")
	}
}

// FuzzControllerRestore feeds arbitrary ControllerSnapshot JSON — what a
// follower decodes from a leader's GET /v1/snapshot — to Restore. It
// must either reject the snapshot or leave a usable controller: the
// next Tick may fail, but must not panic and must still return a table.
func FuzzControllerRestore(f *testing.F) {
	top := topology.TwoClusters(40 * time.Millisecond)
	app := starTestApp(2, appgraph.ReplicaPool{Replicas: 2, Concurrency: 64},
		appgraph.ReplicaPool{Replicas: 2, Concurrency: 4}, topology.West, topology.East)
	cfg := ControllerConfig{DemandSmoothing: 1, Decompose: true, Search: true, Forecast: forecast.Defaults()}

	warm, err := NewController(top, app, cfg)
	if err != nil {
		f.Fatal(err)
	}
	for _, scale := range []float64{1, 1.1} {
		if _, err := warm.Tick(starStats(app, scale), time.Second); err != nil {
			f.Fatal(err)
		}
	}
	valid, err := json.Marshal(warm.Snapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"format":1,"version":7,"optimizer":{"sharded":true,"shards":[{},{}]}}`))
	f.Add([]byte(`{"format":2,"version":3,"optimizer":{"shards":[{"plan":{}},{"basis":[-1,9999999]}]}}`))
	f.Add([]byte(`{"format":2,"demand":{"ca":{"west":-5,"nowhere":1e308}},"forecast":{}}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var snap ControllerSnapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			return
		}
		c, err := NewController(top, app, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_ = c.Restore(&snap) // rejected or applied: either way c must stay usable
		for i := 0; i < 2; i++ {
			tab, _ := c.Tick(starStats(app, 1.05), time.Second)
			if tab == nil {
				t.Fatalf("tick %d after Restore(%q) returned a nil table", i, body)
			}
		}
	})
}
