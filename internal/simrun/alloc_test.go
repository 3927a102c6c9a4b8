package simrun_test

import (
	"runtime"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/scenario"
	"github.com/servicelayernetworking/slate/internal/simrun"
	"github.com/servicelayernetworking/slate/internal/telemetry"
)

// countSink counts spans without keeping them, so the sink's own cost
// stays out of the measurement.
type countSink struct{ n int }

func (s *countSink) WriteSpan(telemetry.Span) error { s.n++; return nil }

// TestRunSteadyStateAllocs pins the engine's per-event path at (almost)
// no garbage: the same generated scenario is run for D and for 2D, and
// the extra heap objects of the longer run, divided by its extra
// requests, must stay under 2, where a request is several calls and a
// few dozen events. What remains is amortized growth (sample slices,
// arrival times) and the per-window flush, ~0.01 per request; a closure
// or a node per call shows as tens (59 and 73 before the per-event path
// was rebuilt on typed events). Set-up (compile, pools, RNG streams,
// arena chunks up to the in-flight peak) cancels in the difference.
func TestRunSteadyStateAllocs(t *testing.T) {
	run := func(d time.Duration, sink simrun.SpanSink) (mallocs, generated uint64) {
		g, err := scenario.Generate(scenario.GenSpec{
			Seed: 7, Clusters: 16, Regions: 4, Services: 48, Classes: 8,
			TailAlpha: 1.8, TotalRPS: 2000, RemoteFraction: 0.12,
			ChurnEvents: 4, HotspotClasses: 2, StormClasses: 2,
			Duration: d, Warmup: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		scn := g.Scenario("steady-allocs")
		scn.ControlPeriod = 500 * time.Millisecond
		scn.SpanSink = sink
		pol := g.Policy()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := simrun.Run(scn, pol)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs, res.Generated
	}
	for _, tc := range []struct {
		name string
		sink func() simrun.SpanSink
	}{
		{"no sink", func() simrun.SpanSink { return nil }},
		{"span sink", func() simrun.SpanSink { return &countSink{} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const d = 2 * time.Second
			m1, n1 := run(d, tc.sink())
			m2, n2 := run(2*d, tc.sink())
			if n2 <= n1 {
				t.Fatalf("generated %d requests in %v and %d in %v", n1, d, n2, 2*d)
			}
			perReq := (float64(m2) - float64(m1)) / float64(n2-n1)
			t.Logf("%d mallocs / %d requests in %v, %d / %d in %v: %.3f per extra request", m1, n1, d, m2, n2, 2*d, perReq)
			if perReq > 2 {
				t.Errorf("%.2f heap objects per extra request, want <= 2: something on the per-call path allocates", perReq)
			}
		})
	}
}
