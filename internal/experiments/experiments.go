// Package experiments defines and runs the paper's evaluation scenarios
// — one entry per figure (the paper has no numbered tables; Figs. 1, 2
// and 5 are architecture diagrams). Each experiment returns printable
// series/rows so cmd/slate-bench and the repository benchmarks can
// regenerate the paper's artifacts. See DESIGN.md for the experiment
// index and EXPERIMENTS.md for paper-vs-measured results.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/simrun"
	"github.com/servicelayernetworking/slate/internal/topology"
	"github.com/servicelayernetworking/slate/internal/workload"
)

// Series is one plottable curve.
type Series struct {
	Name   string
	X, Y   []float64
	XLabel string
	YLabel string
}

// Figure is the output of one experiment.
type Figure struct {
	ID    string
	Title string
	// Series holds the curves the paper plots.
	Series []Series
	// Summary holds headline scalars (ratios, thresholds).
	Summary map[string]float64
	// Notes records scenario parameters for the record.
	Notes []string
}

// Comparison bundles paired SLATE/baseline runs of one scenario.
type Comparison struct {
	SLATE    *simrun.Result
	Baseline *simrun.Result
	// MeanRatio is baseline mean latency / SLATE mean latency (>1 means
	// SLATE wins).
	MeanRatio float64
	// P99Ratio likewise for tail latency.
	P99Ratio float64
	// EgressRatio is baseline egress bytes / SLATE egress bytes.
	EgressRatio float64
}

func compare(s, b *simrun.Result) Comparison {
	c := Comparison{SLATE: s, Baseline: b}
	if s.Mean > 0 {
		c.MeanRatio = float64(b.Mean) / float64(s.Mean)
	}
	if s.P99 > 0 {
		c.P99Ratio = float64(b.P99) / float64(s.P99)
	}
	if s.EgressBytes > 0 {
		c.EgressRatio = float64(b.EgressBytes) / float64(s.EgressBytes)
	} else if b.EgressBytes > 0 {
		c.EgressRatio = float64(b.EgressBytes)
	}
	return c
}

// cdfSeries converts a result's latency CDF into a Series.
func cdfSeries(name string, r *simrun.Result) Series {
	cdf := r.CDF()
	s := Series{Name: name, XLabel: "latency (ms)", YLabel: "P(X<=x)"}
	for _, p := range cdf {
		s.X = append(s.X, ms(p.Latency))
		s.Y = append(s.Y, p.Fraction)
	}
	return s
}

// Options tunes experiment runs; the zero value uses paper-scale
// defaults.
type Options struct {
	// Duration/Warmup of each simulated measurement (default 60s/10s
	// virtual time).
	Duration, Warmup time.Duration
	// Seed for reproducibility (default 42).
	Seed int64
	// SpanSink, when non-nil, receives trace spans from experiments that
	// export them (chaos; see simrun.Scenario.SpanSink). slate-bench
	// wires an obs.SpanWriter here for -trace-out.
	SpanSink simrun.SpanSink
}

func (o Options) defaults() Options {
	if o.Duration <= 0 {
		o.Duration = 60 * time.Second
	}
	if o.Warmup <= 0 || o.Warmup >= o.Duration {
		o.Warmup = o.Duration / 6
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// chainApp builds the paper's 3-service microbenchmark chain for the
// given clusters.
func chainApp(clusters ...topology.ClusterID) *appgraph.App {
	return appgraph.LinearChain(appgraph.ChainOptions{
		Services:        3,
		MeanServiceTime: 10 * time.Millisecond,
		Pool:            appgraph.ReplicaPool{Replicas: 2, Concurrency: 4},
		Clusters:        clusters,
	})
}

// scenario is the steady-state run the Fig. 6 experiments and the
// ablations measure: wl for opt.Duration under a fixed policy, no
// control loop unless the caller sets a ControlPeriod.
func (o Options) scenario(name string, top *topology.Topology, app *appgraph.App, wl []workload.Spec) simrun.Scenario {
	return simrun.Scenario{
		Name: name, Top: top, App: app, Workload: wl,
		Duration: o.Duration, Warmup: o.Warmup, Seed: o.Seed,
	}
}

// runPair runs the scenario under primed SLATE and primed Waterfall
// controllers and returns the comparison.
func runPair(scn simrun.Scenario, demand core.Demand, slateCfg core.ControllerConfig, thresholdFrac float64) (Comparison, error) {
	res, err := runLegs([]leg{
		{"slate", scn, slateLeg(slateCfg, demand)},
		{"waterfall", scn, waterfallLeg(demand, thresholdFrac, true)},
	})
	if err != nil {
		return Comparison{}, err
	}
	return compare(res[0], res[1]), nil
}

// pairFigure starts a Fig. 6 figure from its paired run: the two latency
// CDFs and the mean-latency summary every sub-figure reports.
func pairFigure(id, title string, cmp Comparison, notes ...string) *Figure {
	return &Figure{
		ID: id, Title: title, Notes: notes,
		Series: []Series{
			downsampleCDF(cdfSeries("SLATE", cmp.SLATE), 48),
			downsampleCDF(cdfSeries("WATERFALL", cmp.Baseline), 48),
		},
		Summary: map[string]float64{
			"mean_latency_ratio_waterfall_over_slate": cmp.MeanRatio,
			"slate_mean_ms":     ms(cmp.SLATE.Mean),
			"waterfall_mean_ms": ms(cmp.Baseline.Mean),
		},
	}
}

// ms converts a latency to the milliseconds figures report.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// addClassMeans records a run's per-class mean latency under prefix.
func addClassMeans(fig *Figure, prefix string, res *simrun.Result) {
	for name, cr := range res.PerClass {
		fig.Summary[prefix+name] = ms(cr.Mean)
	}
}

// windowMeanMs is a control window's mean latency in ms, the value most
// timelines plot.
func windowMeanMs(p simrun.TimelinePoint) float64 { return ms(p.Mean) }

// timelineSeries plots one value per control window of a run against
// the window's end time.
func timelineSeries(name, yLabel string, res *simrun.Result, y func(simrun.TimelinePoint) float64) Series {
	s := Series{Name: name, XLabel: "time (s)", YLabel: yLabel}
	for _, p := range res.Timeline {
		s.X = append(s.X, p.At.Seconds())
		s.Y = append(s.Y, y(p))
	}
	return s
}

// meanLatencyOver averages the per-window mean latency (ms) over the
// control windows ending in (from, to]; ok is false when none does.
func meanLatencyOver(res *simrun.Result, from, to time.Duration) (mean float64, ok bool) {
	var sum float64
	var n int
	for _, p := range res.Timeline {
		if p.At > from && p.At <= to {
			sum += ms(p.Mean)
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// Render writes a figure as aligned text tables.
func Render(w io.Writer, f *Figure) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	for _, n := range f.Notes {
		fmt.Fprintf(w, "   # %s\n", n)
	}
	for _, s := range f.Series {
		fmt.Fprintf(w, "-- series %q (%s vs %s)\n", s.Name, s.YLabel, s.XLabel)
		for i := range s.X {
			fmt.Fprintf(w, "   %12.3f  %12.4f\n", s.X[i], s.Y[i])
		}
	}
	if len(f.Summary) > 0 {
		keys := make([]string, 0, len(f.Summary))
		for k := range f.Summary {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintln(w, "-- summary")
		for _, k := range keys {
			fmt.Fprintf(w, "   %-40s %12.4f\n", k, f.Summary[k])
		}
	}
}

// downsampleCDF thins a CDF series to at most n points (benchmark
// output hygiene); the first and last points are always kept.
func downsampleCDF(s Series, n int) Series {
	if len(s.X) <= n || n < 2 {
		return s
	}
	out := Series{Name: s.Name, XLabel: s.XLabel, YLabel: s.YLabel}
	step := float64(len(s.X)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		idx := int(float64(i) * step)
		out.X = append(out.X, s.X[idx])
		out.Y = append(out.Y, s.Y[idx])
	}
	return out
}

// steady builds the workload streams for a demand map over one class.
func steady(class string, demand map[topology.ClusterID]float64) []workload.Spec {
	var out []workload.Spec
	ids := make([]topology.ClusterID, 0, len(demand))
	for c := range demand {
		ids = append(ids, c)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, c := range ids {
		if demand[c] > 0 {
			out = append(out, workload.Steady(class, c, demand[c]))
		}
	}
	return out
}
