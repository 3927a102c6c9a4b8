package experiments

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"
)

// fast returns reduced-duration options so the test suite stays quick;
// the benchmarks run the full paper-scale settings.
func fast() Options {
	return Options{Duration: 30 * time.Second, Warmup: 5 * time.Second, Seed: 42}
}

func TestFig3Shapes(t *testing.T) {
	fig, err := Fig3(fast())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(fig.Series))
	}
	// Optimal must never exceed either static threshold curve at shared
	// loads (it optimizes over all thresholds).
	byName := map[string]Series{}
	for _, s := range fig.Series {
		byName[s.Name] = s
	}
	opt := byName["slate-optimal"]
	lookup := func(s Series, x float64) (float64, bool) {
		for i := range s.X {
			if almostEqual(s.X[i], x) {
				return s.Y[i], true
			}
		}
		return 0, false
	}
	for i, x := range opt.X {
		for _, other := range []string{"conservative-threshold", "aggressive-threshold"} {
			if y, ok := lookup(byName[other], x); ok {
				if opt.Y[i] > y+1e-9 {
					t.Errorf("optimal %.3f > %s %.3f at load %v", opt.Y[i], other, y, x)
				}
			}
		}
	}
	// Both failure-mode penalties must be positive (the paper's point).
	if fig.Summary["conservative_penalty_at_600rps_ms"] <= 0 {
		t.Error("conservative threshold shows no penalty at 600 RPS")
	}
	if fig.Summary["aggressive_penalty_at_740rps_ms"] <= 0 {
		t.Error("aggressive threshold shows no penalty at 740 RPS")
	}
}

func TestFig4ThresholdShapes(t *testing.T) {
	fig, err := Fig4(fast())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d, want 3 RTT curves", len(fig.Series))
	}
	for _, s := range fig.Series {
		for i := range s.X {
			if s.Y[i] > s.X[i]+1e-6 {
				t.Errorf("%s: threshold %v exceeds offered load %v", s.Name, s.Y[i], s.X[i])
			}
		}
	}
	// Higher RTT keeps at least as much traffic local at every load
	// (paper Fig. 4: curves with larger latency hug y=x longer).
	rtt5, rtt50 := fig.Series[0], fig.Series[2]
	for i := range rtt5.X {
		if rtt50.Y[i] < rtt5.Y[i]-1e-6 {
			t.Errorf("at load %v, rtt50 keeps %v < rtt5 keeps %v", rtt5.X[i], rtt50.Y[i], rtt5.Y[i])
		}
	}
	// At low load everything stays local; at 1000 RPS some offload must
	// happen (west cap is 760).
	if !almostEqual(rtt50.Y[0], rtt50.X[0]) {
		t.Error("at 100 RPS everything should stay local")
	}
	last := len(rtt5.X) - 1
	if rtt5.Y[last] >= rtt5.X[last] {
		t.Error("at 1000 RPS the 5ms curve must offload")
	}
}

func TestFig6aSLATEWins(t *testing.T) {
	fig, err := Fig6a(fast())
	if err != nil {
		t.Fatal(err)
	}
	if r := fig.Summary["mean_latency_ratio_waterfall_over_slate"]; r <= 1.0 {
		t.Errorf("fig6a: waterfall/slate mean ratio = %v, want > 1", r)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d, want 2 CDFs", len(fig.Series))
	}
}

func TestFig6bSLATEWins(t *testing.T) {
	fig, err := Fig6b(fast())
	if err != nil {
		t.Fatal(err)
	}
	if r := fig.Summary["mean_latency_ratio_waterfall_over_slate"]; r <= 1.0 {
		t.Errorf("fig6b: waterfall/slate mean ratio = %v, want > 1", r)
	}
}

func TestFig6cEgressAndLatency(t *testing.T) {
	fig, err := Fig6c(fast())
	if err != nil {
		t.Fatal(err)
	}
	if r := fig.Summary["egress_ratio_waterfall_over_slate"]; r < 3 {
		t.Errorf("fig6c: egress ratio = %v, want >= 3 (paper: 11.6)", r)
	}
	if r := fig.Summary["mean_latency_ratio_waterfall_over_slate"]; r <= 1.0 {
		t.Errorf("fig6c: latency ratio = %v, want > 1", r)
	}
}

func TestFig6dClassAwareOffload(t *testing.T) {
	fig, err := Fig6d(fast())
	if err != nil {
		t.Fatal(err)
	}
	if r := fig.Summary["mean_latency_ratio_waterfall_over_slate"]; r <= 1.0 {
		t.Errorf("fig6d: waterfall/slate mean ratio = %v, want > 1", r)
	}
	// SLATE's light class should be at least as fast as Waterfall's.
	if s, w := fig.Summary["slate_mean_ms_class_L"], fig.Summary["waterfall_mean_ms_class_L"]; s > w {
		t.Errorf("fig6d: SLATE L mean %vms slower than Waterfall L %vms", s, w)
	}
}

func TestHeadline(t *testing.T) {
	fig, err := Headline(fast())
	if err != nil {
		t.Fatal(err)
	}
	if fig.Summary["max_mean_latency_ratio"] <= 1 {
		t.Errorf("headline max latency ratio = %v", fig.Summary["max_mean_latency_ratio"])
	}
	if fig.Summary["egress_ratio_fig6c"] < 3 {
		t.Errorf("headline egress ratio = %v", fig.Summary["egress_ratio_fig6c"])
	}
}

func TestAllRegistry(t *testing.T) {
	all := All()
	for _, id := range []string{"fig3", "fig4", "fig6a", "fig6b", "fig6c", "fig6d", "headline"} {
		if all[id] == nil {
			t.Errorf("missing experiment %q", id)
		}
	}
}

func TestRender(t *testing.T) {
	fig, err := Fig3(fast())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	Render(&buf, fig)
	out := buf.String()
	for _, want := range []string{"fig3", "slate-optimal", "summary"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q", want)
		}
	}
}

func TestDownsampleCDF(t *testing.T) {
	s := Series{Name: "x"}
	for i := 0; i < 1000; i++ {
		s.X = append(s.X, float64(i))
		s.Y = append(s.Y, float64(i)/999)
	}
	d := downsampleCDF(s, 10)
	if len(d.X) != 10 {
		t.Fatalf("len = %d, want 10", len(d.X))
	}
	if !almostEqual(d.X[0], 0) || !almostEqual(d.X[9], 999) {
		t.Errorf("endpoints = %v, %v", d.X[0], d.X[9])
	}
	// Short series pass through.
	if got := downsampleCDF(d, 100); len(got.X) != 10 {
		t.Error("short series should pass through")
	}
}

func TestAblationThreshold(t *testing.T) {
	fig, err := AblationWaterfallThreshold(Options{Duration: 20 * time.Second, Warmup: 4 * time.Second, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// SLATE's single policy must beat the worst static threshold by a
	// wide margin and be competitive with the best.
	if fig.Summary["waterfall_worst_mean_ms"] < 2*fig.Summary["slate_mean_ms"] {
		t.Errorf("worst waterfall %.1fms not >> slate %.1fms",
			fig.Summary["waterfall_worst_mean_ms"], fig.Summary["slate_mean_ms"])
	}
	if fig.Summary["slate_mean_ms"] > 1.25*fig.Summary["waterfall_best_mean_ms"] {
		t.Errorf("slate %.1fms much worse than best waterfall %.1fms",
			fig.Summary["slate_mean_ms"], fig.Summary["waterfall_best_mean_ms"])
	}
}

func TestAblationClassGranularity(t *testing.T) {
	fig, err := AblationClassGranularity(fast())
	if err != nil {
		t.Fatal(err)
	}
	if r := fig.Summary["classblind_over_perclass"]; r < 1.0 {
		t.Errorf("class-blind SLATE beat per-class SLATE: ratio %v", r)
	}
}

func TestAblationStepSize(t *testing.T) {
	fig, err := AblationStepSize(Options{Duration: 30 * time.Second, Warmup: 5 * time.Second, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	if len(s.X) != 5 {
		t.Fatalf("points = %d, want 5", len(s.X))
	}
	// Full steps must converge at least as fast as tiny steps on a
	// stationary overload (mean latency no worse).
	if s.Y[len(s.Y)-1] > s.Y[0]+1 {
		t.Errorf("MaxStep=1.0 mean %.1fms worse than MaxStep=0.05 %.1fms", s.Y[len(s.Y)-1], s.Y[0])
	}
}

func TestBurstReaction(t *testing.T) {
	fig, err := BurstReaction(Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d, want slate/waterfall/local-only", len(fig.Series))
	}
	s, w, l := fig.Summary["slate_burst_mean_ms"], fig.Summary["waterfall_burst_mean_ms"], fig.Summary["local-only_burst_mean_ms"]
	if s <= 0 || w <= 0 || l <= 0 {
		t.Fatalf("missing burst means: %v", fig.Summary)
	}
	// Adaptive routing must absorb the burst far better than doing
	// nothing, and SLATE at least as well as Waterfall.
	if l < 3*s {
		t.Errorf("local-only %vms not >> slate %vms during burst", l, s)
	}
	if s > w {
		t.Errorf("slate %vms worse than waterfall %vms during burst", s, w)
	}
}

func TestScalabilitySolveTimes(t *testing.T) {
	fig, err := Scalability(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 7 {
		t.Fatalf("series = %d, want 3 solve sweeps + 4 pipeline series", len(fig.Series))
	}
	// The paper's §5 target: optimization "on the order of seconds" for
	// large deployments. Our largest configs must stay under 2s.
	for _, k := range []string{"solve_ms_at_12_clusters", "solve_ms_at_16_services", "solve_ms_at_16_classes"} {
		if v := fig.Summary[k]; v <= 0 || v > 2000 {
			t.Errorf("%s = %vms, want (0, 2000]", k, v)
		}
	}
	// The decomposed pipeline must beat full-table fan-out on
	// control-plane bytes at 8 clusters × 8 classes, with ≥90% of
	// subproblem solves skipped on unchanged ticks. Steady tick latency
	// is no longer ordered: the one-shard leg runs the same pipeline, so
	// its clean shard skips too (what decomposition still buys is the
	// perturbed tick below: one of eight shards re-solves, not the whole
	// LP).
	for _, k := range []string{"tick_ms_monolithic_at_8x8", "tick_ms_decomposed_at_8x8"} {
		if v := fig.Summary[k]; v <= 0 {
			t.Errorf("%s = %vms, want > 0", k, v)
		}
	}
	if m, d := fig.Summary["wire_bytes_monolithic_at_8x8"], fig.Summary["wire_bytes_decomposed_at_8x8"]; !(d < m) || d <= 0 {
		t.Errorf("wire bytes at 8x8: decomposed %v not strictly below monolithic %v", d, m)
	}
	if r := fig.Summary["subproblem_skip_rate_steady"]; r < 0.9 {
		t.Errorf("steady skip rate = %v, want >= 0.9", r)
	}
	if s := int(fig.Summary["subproblems_at_8x8"]); s != 8 {
		t.Errorf("subproblems at 8x8 = %v, want 8 (one per class)", s)
	}
	if p := int(fig.Summary["subproblem_solves_perturb"]); p != 1 {
		t.Errorf("perturbed tick re-solved %v subproblems, want exactly 1", p)
	}
}

func TestAutoscalerInteraction(t *testing.T) {
	fig, err := AutoscalerInteraction(Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	a := fig.Summary["autoscaler-only_burst_mean_ms"]
	s := fig.Summary["slate-only_burst_mean_ms"]
	c := fig.Summary["combined_burst_mean_ms"]
	if a <= 0 || s <= 0 || c <= 0 {
		t.Fatalf("missing summaries: %v", fig.Summary)
	}
	// Routing reacts far faster than scaling during the burst.
	if a < 3*s {
		t.Errorf("autoscaler-only %vms not >> slate-only %vms", a, s)
	}
	// Routing suppresses provisioning: combined needs fewer west
	// replicas than autoscaler-only (the §5 interaction).
	if r := fig.Summary["scaling_suppression_ratio"]; r < 1.2 {
		t.Errorf("scaling suppression ratio = %v, want > 1.2", r)
	}
}

// TestMedian: the middle value of a sorted copy (the upper one of an
// even count), 0 for no samples, and the caller's order left alone.
func TestMedian(t *testing.T) {
	even := []float64{4, 1, 3, 2}
	got := []float64{median(nil), median([]float64{5, 1, 3}), median(even)}
	if want := []float64{0, 3, 3}; !slices.Equal(got, want) {
		t.Errorf("median of none, [5 1 3], [4 1 3 2] = %v, want %v", got, want)
	}
	if !slices.Equal(even, []float64{4, 1, 3, 2}) {
		t.Errorf("median reordered its input: %v", even)
	}
}
