package controlplane

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
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
// epoch gap). An acceptable report gets 202, or 200 only from a replica
// that has pushed to that cluster; this one registers no cluster and
// pushes nothing, so it answers 202. Every execution first posts a
// fixed full report for the seed cluster, so a delta body finds a base
// at epoch 7 and the delta fold is reachable; after every 202 the
// reported cluster's reconstructed window must have unique keys in
// lessMetricKey order and equal the map-based reference fold of the same
// two reports. Both directions are held to json.Unmarshal: a body gets
// 202 exactly when it decodes there into an acceptable report — naming a
// cluster, with no negative rate, every stat keyed to that cluster, and
// either full or the base's next delta.
func FuzzHandleMetrics(f *testing.F) {
	g, h := fuzzGlobal(f)
	base := MetricsReport{Cluster: topology.West, WindowMS: 1000, Epoch: 7, Stats: append(feStats(900, 0)[:1],
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
		`{"Key":{"Service":"gateway","Class":"default","Cluster":"west"},"RPS":2},` +
		`{"Key":{"Service":"svc-1","Class":"default","Cluster":"west"},"RPS":4}]}`))
	f.Add([]byte(`{"cluster":"west","delta":true,"epoch":8,"stats":[` +
		`{"Key":{"Service":"zz","Class":"c","Cluster":"west"},"RPS":1},` +
		`{"Key":{"Service":"aa","Class":"c","Cluster":"west"},"RPS":1},` +
		`{"Key":{"Service":"aa","Class":"c","Cluster":"west"},"RPS":9}],` +
		`"removed":[{"Service":"gateway","Class":"default","Cluster":"west"},{"Service":"zz","Class":"c","Cluster":"west"},{"Service":"nope"}]}`))
	// The three rejects: a negative rate, no cluster, another cluster's key.
	f.Add([]byte(`{"cluster":"west","delta":true,"epoch":8,"stats":[{"Key":{"Service":"gateway","Class":"default","Cluster":"west"},"RPS":-1}]}`))
	f.Add([]byte(`{"cluster":"","epoch":1,"stats":[{"Key":{"Service":"gateway"},"RPS":1}]}`))
	f.Add([]byte(`{"cluster":"west","epoch":1,"stats":[{"Key":{"Service":"gateway","Class":"default","Cluster":"east"},"RPS":1}]}`))
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
		// Both directions: a body encoding/json decodes into an acceptable
		// report must be accepted, so a decoder stricter than encoding/json
		// fails here, and any other must not be.
		acceptable := decodeErr == nil && rep.Cluster != "" &&
			!slices.ContainsFunc(rep.Stats, func(ws telemetry.WindowStats) bool {
				return ws.RPS < 0 || ws.Key.Cluster != string(rep.Cluster)
			}) &&
			(!rep.Delta || rep.Cluster == base.Cluster && rep.Epoch == base.Epoch+1)
		if acceptable != (code == http.StatusAccepted) {
			t.Fatalf("POST /v1/metrics(%q) = %d, but the report is acceptable = %v", body, code, acceptable)
		}
		if code == http.StatusAccepted {
			ref := newRefGlobal()
			ref.handle(refStripe(base.Cluster), base)
			if want := ref.handle(refStripe(rep.Cluster), rep); want != code {
				t.Fatalf("POST /v1/metrics(%q) = 202, reference %d", body, want)
			}
			checkWindow(t, g, ref, rep.Cluster)
		}
		g.ingestMu.Lock()
		g.ingest, g.pending = nil, 0
		g.ingestMu.Unlock()
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

// leaseState is an acceptor's lease, read under its lock.
type leaseState struct {
	holder          string
	epoch, pubEpoch uint64
	expires         time.Time
}

func readLease(c *Cluster) leaseState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return leaseState{c.leaseHolder, c.leaseEpoch, c.pubEpoch, c.leaseExpires}
}

func (s leaseState) equal(o leaseState) bool {
	return s.holder == o.holder && s.epoch == o.epoch && s.pubEpoch == o.pubEpoch && s.expires.Equal(o.expires)
}

// postLease sends one POST /v1/lease body to h.
func postLease(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/lease", bytes.NewReader(body)))
	return rec
}

// TestLeaseRejectsOverflowingTTL: a TTL whose milliseconds overflow a
// time.Duration is refused. Accepted, it granted a lease that had
// already expired (expires_in_ms -9223372036854), which a rival at the
// next epoch took over at once.
func TestLeaseRejectsOverflowingTTL(t *testing.T) {
	clk := newVclock()
	c := NewCluster(topology.West, "")
	c.SetNow(clk.Now)
	h := c.Handler()
	if rec := postLease(h, []byte(`{"candidate":"a","epoch":1,"ttl_ms":9223372036855}`)); rec.Code != http.StatusBadRequest {
		t.Fatalf("ttl_ms one past the largest Duration = %d %s, want 400", rec.Code, rec.Body)
	}
	if s := readLease(c); s.holder != "" || s.pubEpoch != 0 {
		t.Fatalf("refused lease changed the acceptor: holder %q, fence %d", s.holder, s.pubEpoch)
	}
	// The largest TTL a Duration holds is granted, and it holds.
	rec := postLease(h, []byte(`{"candidate":"a","epoch":1,"ttl_ms":9223372036854}`))
	var resp LeaseResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || !resp.Granted || resp.ExpiresInMS != 9223372036854 {
		t.Fatalf("largest TTL: %d %s (%v), want granted for 9223372036854 ms", rec.Code, rec.Body, err)
	}
	clk.Advance(time.Hour)
	rec = postLease(h, []byte(`{"candidate":"b","epoch":2,"ttl_ms":1000}`))
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Granted || resp.Holder != "a" {
		t.Fatalf("rival at epoch 2: %s (%v), want denied while a holds", rec.Body, err)
	}
}

// FuzzHandleLease runs a script against one lease acceptor on a virtual
// clock. Each line is either "+<ms>", which advances the clock, or a
// POST /v1/lease body. The seeds draw candidates from {a, b, c} and
// epochs from 1–3, so mutations keep meeting renewals, takeovers and
// denials. After every body:
//   - the answer is 200 or 400;
//   - a grant expires within 0 and the requested ttl_ms;
//   - the lease epoch and the push fence never decrease;
//   - a denial, or a 400, changes nothing.
func FuzzHandleLease(f *testing.F) {
	for _, s := range []string{
		`{"candidate":"a","epoch":1,"ttl_ms":1000}`,
		"{\"candidate\":\"a\",\"epoch\":1,\"ttl_ms\":1000}\n+500\n{\"candidate\":\"a\",\"epoch\":1,\"ttl_ms\":1000}",
		"{\"candidate\":\"a\",\"epoch\":1,\"ttl_ms\":1000}\n{\"candidate\":\"b\",\"epoch\":2,\"ttl_ms\":1000}\n+1000\n{\"candidate\":\"b\",\"epoch\":2,\"ttl_ms\":1000}",
		"{\"candidate\":\"c\",\"epoch\":3,\"ttl_ms\":10}\n+10\n{\"candidate\":\"a\",\"epoch\":2,\"ttl_ms\":10}\n{\"candidate\":\"c\",\"epoch\":3,\"ttl_ms\":10}",
		`{"candidate":"a","epoch":1,"ttl_ms":9223372036855}`,
		`{"candidate":"","epoch":0,"ttl_ms":-1}`,
		`{"candidate":"a","epoch":1,"ttl_ms":1000} trailing`,
		`not json`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		clk := newVclock()
		c := NewCluster(topology.West, "")
		c.SetNow(clk.Now)
		h := c.Handler()
		for line := range bytes.SplitSeq(script, []byte("\n")) {
			if ms, ok := bytes.CutPrefix(line, []byte("+")); ok {
				if n, err := strconv.ParseUint(string(ms), 10, 32); err == nil {
					clk.Advance(time.Duration(n) * time.Millisecond)
					continue
				}
			}
			before := readLease(c)
			rec := postLease(h, line)
			after := readLease(c)
			if after.epoch < before.epoch || after.pubEpoch < before.pubEpoch {
				t.Fatalf("lease %q moved epoch %d -> %d, fence %d -> %d", line, before.epoch, after.epoch, before.pubEpoch, after.pubEpoch)
			}
			switch rec.Code {
			case http.StatusBadRequest:
				if !after.equal(before) {
					t.Fatalf("refused lease %q changed the acceptor: %+v -> %+v", line, before, after)
				}
			case http.StatusOK:
				var req LeaseRequest
				var resp LeaseResponse
				if err := json.Unmarshal(line, &req); err != nil {
					t.Fatalf("lease %q answered 200, but the body does not decode: %v", line, err)
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatalf("lease %q: answer %q does not decode: %v", line, rec.Body, err)
				}
				switch {
				case resp.Granted && (resp.ExpiresInMS < 0 || resp.ExpiresInMS > req.TTLMS):
					t.Fatalf("lease %q granted for %d ms", line, resp.ExpiresInMS)
				case !resp.Granted && !after.equal(before):
					t.Fatalf("denied lease %q changed the acceptor: %+v -> %+v", line, before, after)
				}
			default:
				t.Fatalf("lease %q = %d, want 200 or 400", line, rec.Code)
			}
		}
	})
}
