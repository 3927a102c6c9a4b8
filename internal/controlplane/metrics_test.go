package controlplane

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/servicelayernetworking/slate/internal/obs"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// scrape GETs a daemon's Prometheus exposition and returns the text.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + obs.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", obs.MetricsPath, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q is not the Prometheus text format", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// counterValue extracts one series value from exposition text. The
// daemons share obs.Default(), so tests compare before/after deltas
// rather than absolute values.
func counterValue(t *testing.T, text, series string) uint64 {
	t.Helper()
	re := regexp.MustCompile("(?m)^" + regexp.QuoteMeta(series) + " ([0-9]+)$")
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("series %q not in exposition:\n%s", series, text)
	}
	v, err := strconv.ParseUint(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestGlobalServesPrometheusExposition checks the global controller's
// /metrics/prom endpoint and that telemetry ingest moves its counters.
func TestGlobalServesPrometheusExposition(t *testing.T) {
	_, srv := newGlobalServer(t)
	before := counterValue(t, scrape(t, srv.URL), "slate_global_reports_total")

	resp := postJSONReq(t, srv.URL+"/v1/metrics", MetricsReport{
		Cluster: topology.West, WindowMS: 1000, Stats: feStats(900, 100)[:1],
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	drain(resp)

	after := counterValue(t, scrape(t, srv.URL), "slate_global_reports_total")
	if after != before+1 {
		t.Fatalf("slate_global_reports_total went %d -> %d, want +1", before, after)
	}
}

// TestClusterServesPrometheusExposition checks the cluster controller's
// /metrics/prom endpoint: rule pushes bump the table-version gauge and
// telemetry pushes bump the cluster-labeled ingest counter.
func TestClusterServesPrometheusExposition(t *testing.T) {
	c := NewCluster("obs-test", "")
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)

	series := `slate_cluster_ingested_batches_total{cluster="obs-test"}`
	before := counterValue(t, scrape(t, srv.URL), series)

	resp, err := http.Post(srv.URL+"/v1/metrics", "application/json", strings.NewReader(`[]`))
	if err != nil {
		t.Fatal(err)
	}
	drain(resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("telemetry push status = %d", resp.StatusCode)
	}

	text := scrape(t, srv.URL)
	if got := counterValue(t, text, series); got != before+1 {
		t.Fatalf("%s went %d -> %d, want +1", series, before, got)
	}
	if !strings.Contains(text, `slate_cluster_table_version{cluster="obs-test"}`) {
		t.Fatalf("exposition missing table-version gauge:\n%s", text)
	}
}
