package dataplane

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/servicelayernetworking/slate/internal/obs"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/sim"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// TestProxyServesPrometheusExposition checks the sidecar's own
// observability endpoint: after traffic flows, GET /metrics/prom
// answers the Prometheus text format with this proxy's series.
func TestProxyServesPrometheusExposition(t *testing.T) {
	reg := newRegistry()
	app := echoApp(t, "a")
	p, err := New(Config{
		Service:  "svc-a",
		Cluster:  topology.West,
		LocalApp: app.URL,
		Resolver: reg,
		RNG:      sim.NewRNG(1),
		Metrics:  obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p)
	t.Cleanup(srv.Close)
	reg.add("svc-a", topology.West, srv.URL)

	for i := 0; i < 3; i++ {
		resp, err := http.Get(srv.URL + "/inbound")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(srv.URL + obs.MetricsPath)
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
	text := string(body)
	for _, want := range []string{
		`slate_proxy_inbound_requests_total{service="svc-a",cluster="west"} 3`,
		"# TYPE slate_proxy_inbound_seconds histogram",
		`slate_proxy_degradation_level{service="svc-a",cluster="west"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestProxyDegradationLevelTransitions walks the degradation ladder on
// a fake clock: fresh rules (0), past half the TTL (1), past the TTL
// (2), and back to 0 once the control plane confirms the table again.
func TestProxyDegradationLevelTransitions(t *testing.T) {
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { return now }
	p, err := New(Config{
		Service:    "svc-a",
		Cluster:    topology.West,
		LocalApp:   "http://127.0.0.1:0",
		Resolver:   newRegistry(),
		RNG:        sim.NewRNG(1),
		StaleAfter: 10 * time.Second,
		Now:        clock,
		Metrics:    obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	p.SetTable(routing.NewTable(1, nil))

	steps := []struct {
		advance time.Duration
		want    int
	}{
		{0, 0},
		{4 * time.Second, 0},  // age 4s <= TTL/2
		{2 * time.Second, 1},  // age 6s: stale-but-held
		{5 * time.Second, 2},  // age 11s: past TTL, local fallback
		{10 * time.Second, 2}, // stays degraded while silent
	}
	for i, s := range steps {
		now = now.Add(s.advance)
		if got := p.DegradationLevel(); got != s.want {
			t.Fatalf("step %d (age %v): DegradationLevel = %d, want %d", i, p.RulesAge(), got, s.want)
		}
	}
	p.MarkRulesFresh()
	if got := p.DegradationLevel(); got != 0 {
		t.Fatalf("after MarkRulesFresh: DegradationLevel = %d, want 0", got)
	}
}

// TestRulesAgeIgnoresWallClockSteps steps the wall clock an hour either
// way, as NTP may, two seconds after the rules arrived. The rules stay
// two seconds old: neither stale past the 10-second TTL nor refreshed.
func TestRulesAgeIgnoresWallClockSteps(t *testing.T) {
	start := time.Now()
	now := start
	p, err := New(Config{
		Service:    "svc-a",
		Cluster:    topology.West,
		LocalApp:   "http://127.0.0.1:0",
		Resolver:   newRegistry(),
		RNG:        sim.NewRNG(1),
		StaleAfter: 10 * time.Second,
		Now:        func() time.Time { return now },
		Metrics:    obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	p.SetTable(routing.NewTable(1, nil))
	for _, step := range []time.Duration{time.Hour, -time.Hour} {
		now = wallStepped(t, start.Add(2*time.Second), step)
		if age := p.RulesAge(); age != 2*time.Second {
			t.Fatalf("wall clock stepped %v: rules age %v, want 2s", step, age)
		}
		if level := p.DegradationLevel(); level != 0 {
			t.Fatalf("wall clock stepped %v: level %d; want fresh rules", step, level)
		}
	}
}

// wallStepped returns at, which must carry a monotonic clock reading,
// with its wall clock moved by step (whole seconds) and its monotonic
// reading kept: what time.Now returns after an NTP step. The time
// package has no API for that, so this writes the seconds field of its
// internal encoding, unchanged since Go 1.9 (wall: the hasMonotonic bit,
// 33 bits of seconds since 1885, 30 bits of nanoseconds), and checks the
// result before use.
func wallStepped(t *testing.T, at time.Time, step time.Duration) time.Time {
	t.Helper()
	type layout struct {
		wall uint64
		ext  int64
		loc  *time.Location
	}
	const hasMonotonic, nsecShift = 1 << 63, 30
	l := *(*layout)(unsafe.Pointer(&at))
	if l.wall&hasMonotonic == 0 {
		t.Fatal("wallStepped needs a time with a monotonic reading")
	}
	l.wall += uint64(int64(step/time.Second)) << nsecShift
	out := *(*time.Time)(unsafe.Pointer(&l))
	if out.Sub(at) != 0 || out.Round(0).Sub(at.Round(0)) != step {
		t.Fatalf("time.Time encoding changed: stepped %v to %v (monotonic %v, wall %v)", at, out, out.Sub(at), out.Round(0).Sub(at.Round(0)))
	}
	return out
}
