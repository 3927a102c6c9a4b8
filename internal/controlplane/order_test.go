package controlplane

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// TestMergeIngestDeterministicOrder feeds identical reports to two
// fresh globals and asserts mergeIngest merges them into identical
// windows, every key once and in key order. The merged window seeds
// float-averaging demand estimation, so its order must not leak map
// iteration order into the optimizer input (the detorder analyzer
// guards the pattern; this pins the behavior).
func TestMergeIngestDeterministicOrder(t *testing.T) {
	build := func() []telemetry.WindowStats {
		g, srv := newGlobalServer(t)
		for _, cl := range []topology.ClusterID{"zeta", "alpha", topology.West, topology.East} {
			var stats []telemetry.WindowStats
			for i := 0; i < 24; i++ {
				stats = append(stats, telemetry.WindowStats{
					Key: telemetry.MetricKey{
						Service: fmt.Sprintf("svc-%02d", i%7),
						Class:   fmt.Sprintf("c%d", i%3),
						Cluster: string(cl),
					},
					RPS:      float64(i + 1),
					Requests: uint64(i + 1),
				})
			}
			resp := postJSONReq(t, srv.URL+"/v1/metrics", MetricsReport{
				Cluster: cl, WindowMS: 1000, Stats: stats,
			})
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("metrics status = %d for %s", resp.StatusCode, cl)
			}
			drain(resp)
		}
		merged, _ := g.mergeIngest()
		return merged
	}

	a, b := build(), build()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("mergeIngest not deterministic across identical ingests:\n%v\n%v", a, b)
	}
	if len(a) != 4*21 { // 21 distinct (service, class) keys per cluster
		t.Fatalf("merged %d stats, want 84", len(a))
	}
	for i := 1; i < len(a); i++ {
		if !lessMetricKey(a[i-1].Key, a[i].Key) {
			t.Errorf("merge not in strict key order at %d: %v then %v", i, a[i-1].Key, a[i].Key)
		}
	}
}

// TestStatusClustersSorted pins the wire-visible cluster list order in
// GET /v1/status regardless of registration order.
func TestStatusClustersSorted(t *testing.T) {
	_, srv := newGlobalServer(t)
	for _, cl := range []topology.ClusterID{"west", "apex", "mid", "zed", "east"} {
		resp := postJSONReq(t, srv.URL+"/v1/register", RegisterRequest{Cluster: cl, URL: "http://127.0.0.1:1"})
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("register status = %d", resp.StatusCode)
		}
		drain(resp)
	}
	resp, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	want := []topology.ClusterID{"apex", "east", "mid", "west", "zed"}
	if !reflect.DeepEqual(st.Clusters, want) {
		t.Errorf("status clusters = %v, want sorted %v", st.Clusters, want)
	}
}
