package controlplane

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// fuzzGlobal builds one Global handler for a whole fuzz run; individual
// executions reset the pending-report buffer so millions of iterations
// cannot grow it without bound.
func fuzzGlobal(f *testing.F) (*Global, http.Handler) {
	f.Helper()
	top := topology.TwoClusters(40 * time.Millisecond)
	ctrl, err := core.NewController(top, chainApp(), core.ControllerConfig{DemandSmoothing: 1})
	if err != nil {
		f.Fatal(err)
	}
	g := NewGlobal(ctrl)
	return g, g.Handler()
}

// FuzzHandleMetrics feeds arbitrary bodies to the global controller's
// telemetry ingest endpoint: it must never panic, and must answer only
// 202 (decoded), 400 (malformed or out of range), or 409 (delta with an
// epoch gap). Every execution first posts a fixed full report for the
// seed cluster, so a delta body finds a base at epoch 7 and the delta
// fold is reachable; after every 202 the reported cluster's
// reconstructed window must have unique keys in lessMetricKey order and
// equal the map-based reference fold of the same two reports. Both
// directions are held to json.Unmarshal: a 202 body decodes there, and a
// body that decodes there into a report naming a cluster, with no
// negative rate, and either full or the base's next delta, gets 202.
func FuzzHandleMetrics(f *testing.F) {
	g, h := fuzzGlobal(f)
	base := MetricsReport{Cluster: topology.West, WindowMS: 1000, Epoch: 7, Stats: append(feStats(900, 100),
		telemetry.WindowStats{Key: telemetry.MetricKey{Service: "svc-1", Class: "default", Cluster: "west"}, RPS: 450})}
	valid, err := json.Marshal(base)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"cluster":"west","window_ms":-5,"stats":null}`))
	f.Add([]byte(`{"stats":[{"key":{"service":"","class":"","cluster":""}}]}`))
	f.Add([]byte(`{"cluster":"west","delta":true,"epoch":7,"stats":[]}`))
	// Deltas on the base: keys out of order, duplicated (last wins), new, removed.
	f.Add([]byte(`{"cluster":"west","delta":true,"epoch":8,"stats":[` +
		`{"Key":{"Service":"svc-1","Class":"default","Cluster":"west"},"RPS":3},` +
		`{"Key":{"Service":"gateway","Class":"default","Cluster":"east"},"RPS":2},` +
		`{"Key":{"Service":"svc-1","Class":"default","Cluster":"west"},"RPS":4}]}`))
	f.Add([]byte(`{"cluster":"west","delta":true,"epoch":8,"stats":[` +
		`{"Key":{"Service":"zz","Class":"c","Cluster":"west"},"RPS":1},` +
		`{"Key":{"Service":"aa","Class":"c","Cluster":"west"},"RPS":1},` +
		`{"Key":{"Service":"aa","Class":"c","Cluster":"west"},"RPS":9}],` +
		`"removed":[{"Service":"gateway","Class":"default","Cluster":"west"},{"Service":"zz","Class":"c","Cluster":"west"},{"Service":"nope"}]}`))
	// The two rejects: a negative rate, no cluster.
	f.Add([]byte(`{"cluster":"west","delta":true,"epoch":8,"stats":[{"Key":{"Service":"gateway","Class":"default","Cluster":"west"},"RPS":-1}]}`))
	f.Add([]byte(`{"cluster":"","epoch":1,"stats":[{"Key":{"Service":"gateway"},"RPS":1}]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, body []byte) {
		if code := postMetrics(h, valid); code != http.StatusAccepted {
			t.Fatalf("base report = %d, want 202", code)
		}
		code := postMetrics(h, body)
		if code != http.StatusAccepted && code != http.StatusBadRequest && code != http.StatusConflict {
			t.Fatalf("POST /v1/metrics(%q) = %d, want 202, 400, or 409", body, code)
		}
		var rep MetricsReport
		decodeErr := json.Unmarshal(body, &rep)
		// The other direction: a body encoding/json decodes into an
		// acceptable report must be accepted, so a decoder stricter than
		// encoding/json fails here.
		acceptable := decodeErr == nil && rep.Cluster != "" &&
			!slices.ContainsFunc(rep.Stats, func(ws telemetry.WindowStats) bool { return ws.RPS < 0 }) &&
			(!rep.Delta || rep.Cluster == base.Cluster && rep.Epoch == base.Epoch+1)
		if acceptable && code != http.StatusAccepted {
			t.Fatalf("POST /v1/metrics(%q) = %d, but encoding/json decodes an acceptable report", body, code)
		}
		if code == http.StatusAccepted {
			if decodeErr != nil {
				t.Fatalf("POST /v1/metrics(%q) = 202 but the body does not decode: %v", body, decodeErr)
			}
			ref := newRefGlobal()
			ref.handle(stripeIndex(g, base.Cluster), base)
			if want := ref.handle(stripeIndex(g, rep.Cluster), rep); want != code {
				t.Fatalf("POST /v1/metrics(%q) = 202, reference %d", body, want)
			}
			checkWindow(t, g, ref, rep.Cluster)
		}
		for i := range g.ingest {
			st := &g.ingest[i]
			st.mu.Lock()
			clear(st.clusters)
			st.ids = nil
			st.mu.Unlock()
		}
		g.pendingClusters.Store(0)
	})
}

// FuzzHandlePatch feeds arbitrary bodies to the cluster controller's
// rule-push endpoint (routing.Patch decode + Cluster.ApplyPatch). No
// input may panic; it must answer only 204 (applied), 400 (malformed),
// or 409 (version gap), and any applied patch must leave a table that
// holds the Distribution invariant (normalized non-negative weights),
// because every rule is routed through routing.NewDistribution.
func FuzzHandlePatch(f *testing.F) {
	c := NewCluster(topology.West, "")
	h := c.Handler()

	d, err := routing.NewDistribution(map[topology.ClusterID]float64{
		topology.West: 0.7, topology.East: 0.3,
	})
	if err != nil {
		f.Fatal(err)
	}
	key := routing.Key{Service: "gateway", Class: "default", Cluster: topology.West}
	base := routing.NewTable(3, map[routing.Key]routing.Distribution{key: d})
	next := routing.NewTable(4, map[routing.Key]routing.Distribution{
		{Service: "svc-1", Class: routing.AnyClass, Cluster: topology.West}: routing.Local(topology.East),
	})
	for _, p := range []*routing.Patch{routing.MakePatch(base, next), routing.FullPatch(next)} {
		valid, err := json.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(valid)
	}
	f.Add([]byte(`{"from_version":9,"version":10}`))
	f.Add([]byte(`{"from_version":3,"version":4} trailing garbage`))
	f.Add([]byte(`{"from_version":3,"version":4,"set":[{"service":"s","class":"*","cluster":"west","weights":{"west":-1}}]}`))
	f.Add([]byte(`{"version":9,"full":true,"set":[{"weights":{"x":1e308,"y":1e308}}]}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, body []byte) {
		c.ApplyTable(base) // every execution patches the same table
		req := httptest.NewRequest(http.MethodPost, "/v1/patch", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusNoContent:
			tab := c.Table()
			if tab == nil {
				t.Fatal("applied patch left a nil table")
			}
			for _, k := range tab.Keys() {
				dist, ok := tab.Get(k)
				if !ok {
					t.Fatalf("Keys lists %v but Get misses it", k)
				}
				var sum float64
				for cl, w := range dist.All() {
					if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
						t.Fatalf("rule %v: invalid weight %v for %q", k, w, cl)
					}
					sum += w
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Fatalf("rule %v: weights sum to %v, want 1", k, sum)
				}
			}
		case http.StatusBadRequest, http.StatusConflict:
			// malformed body or version gap: nothing applied
			if c.Table() != base {
				t.Fatalf("POST /v1/patch(%q) = %d but the table changed", body, rec.Code)
			}
		default:
			t.Fatalf("POST /v1/patch(%q) = %d, want 204, 400, or 409", body, rec.Code)
		}
	})
}
