package slate_test

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"maps"
	"math"
	"os"
	"path"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/servicelayernetworking/slate/internal/experiments"
)

var updateFigures = flag.Bool("update-figures", false, "rewrite FIGURES.json from this run's Summary values")

const figuresFile = "FIGURES.json"

// figureSpec classifies every Summary key of one experiment: pinned keys
// are a function of the seed alone at benchOptions and are held to
// FIGURES.json bit for bit; wallClock patterns (path.Match) name the
// keys that time this machine and are reported but never compared. A
// non-empty skip keeps the experiment out of FIGURES.json, and says why.
type figureSpec struct {
	id        string
	run       func(experiments.Options) (*experiments.Figure, error)
	pinned    []string
	wallClock []string
	skip      string
}

// figures is the one figure list, an entry per id of experiments.All():
// TestFiguresPinned and BenchmarkFigure both read it.
var figures = []figureSpec{
	{id: "fig3", run: experiments.Fig3, pinned: []string{
		"conservative_penalty_at_600rps_ms", "aggressive_penalty_at_740rps_ms"}},
	{id: "fig4", run: experiments.Fig4, pinned: []string{
		"offload_onset_rps_rtt5ms", "offload_onset_rps_rtt25ms", "offload_onset_rps_rtt50ms"}},
	{id: "fig6a", run: experiments.Fig6a, pinned: []string{
		"mean_latency_ratio_waterfall_over_slate", "p99_latency_ratio_waterfall_over_slate",
		"slate_mean_ms", "waterfall_mean_ms"}},
	{id: "fig6b", run: experiments.Fig6b, pinned: []string{
		"mean_latency_ratio_waterfall_over_slate", "p99_latency_ratio_waterfall_over_slate",
		"slate_mean_ms", "waterfall_mean_ms"}},
	{id: "fig6c", run: experiments.Fig6c, pinned: []string{
		"egress_ratio_waterfall_over_slate", "egress_cost_ratio",
		"mean_latency_ratio_waterfall_over_slate", "slate_mean_ms", "waterfall_mean_ms"}},
	{id: "fig6d", run: experiments.Fig6d, pinned: []string{
		"mean_latency_ratio_waterfall_over_slate", "slate_mean_ms", "waterfall_mean_ms",
		"slate_mean_ms_class_H", "slate_mean_ms_class_L",
		"waterfall_mean_ms_class_H", "waterfall_mean_ms_class_L"}},
	{id: "headline", run: experiments.Headline, pinned: []string{
		"max_mean_latency_ratio", "egress_ratio_fig6c",
		"latency_ratio_fig6a", "latency_ratio_fig6b", "latency_ratio_fig6c", "latency_ratio_fig6d"}},
	{id: "ablation-threshold", run: experiments.AblationWaterfallThreshold, pinned: []string{
		"slate_mean_ms", "waterfall_best_mean_ms", "waterfall_worst_mean_ms"}},
	{id: "ablation-classes", run: experiments.AblationClassGranularity, pinned: []string{
		"classblind_over_perclass",
		"perclass_mean_ms", "perclass_mean_ms_H", "perclass_mean_ms_L",
		"classblind_mean_ms", "classblind_mean_ms_H", "classblind_mean_ms_L"}},
	// ablation-step publishes series only; listing it keeps its Summary
	// empty until a new key is classified here.
	{id: "ablation-step", run: experiments.AblationStepSize},
	{id: "burst", run: experiments.BurstReaction, pinned: []string{
		"slate_burst_mean_ms", "waterfall_burst_mean_ms", "local-only_burst_mean_ms",
		"localonly_over_slate_burst"}},
	{id: "scalability", run: experiments.Scalability,
		pinned: []string{
			"wire_bytes_monolithic_at_8x8", "wire_bytes_decomposed_at_8x8",
			"subproblem_skip_rate_steady", "subproblems_at_8x8", "subproblem_solves_perturb"},
		wallClock: []string{"solve_ms_*", "tick_ms_*"}},
	{id: "autoscaler", run: experiments.AutoscalerInteraction, pinned: []string{
		"autoscaler-only_burst_mean_ms", "slate-only_burst_mean_ms", "combined_burst_mean_ms",
		"autoscaler-only_final_west_replicas", "combined_final_west_replicas",
		"scaling_suppression_ratio"}},
	{id: "chaos", run: experiments.Chaos, pinned: []string{
		"hardened_availability", "unhardened_availability", "availability_gain", "hardened_recovery_s",
		"hardened_p50_ms", "hardened_p99_ms", "hardened_failed",
		"hardened_degraded_calls", "hardened_missed_ticks",
		"unhardened_p50_ms", "unhardened_p99_ms", "unhardened_failed",
		"unhardened_degraded_calls", "unhardened_missed_ticks"}},
	{id: "hachaos", run: experiments.HAChaos, pinned: []string{
		"replicated_availability", "single_availability", "availability_gain",
		"replicated_ttf_periods", "single_ttf_periods", "windows", "kill_window"}},
	{id: "regret", run: experiments.Regret, pinned: regretKeys()},
	{id: "pardes", run: experiments.ParallelDES,
		pinned: []string{"serial_mean_ms", "fingerprint_shards_4",
			"messages_shards_1", "messages_shards_2", "messages_shards_4", "messages_shards_8",
			"windows_shards_1", "windows_shards_2", "windows_shards_4", "windows_shards_8",
			"critical_path_shards_1", "critical_path_shards_2", "critical_path_shards_4", "critical_path_shards_8"},
		wallClock: []string{"speedup_*", "*wall_ms*"}},
	{id: "pardes-1m", run: experiments.ParallelDES1M,
		skip: "minutes of wall time; the CI determinism matrix runs it once"},
	// gapcurve's simplex_objective and its nine gaps were re-pinned once,
	// when a warm basis that demand left infeasible began to be repaired
	// by dual simplex pivots instead of re-solved cold: the reference
	// reaches the same vertex by other pivots, and its objective moved
	// by 2 ulp (3.4e-16 relative), which each gap = search/simplex − 1
	// carries as −3.4e-16 (< 2e-13 of the gap). EXPERIMENTS.md lists
	// old → new.
	{id: "gapcurve", run: experiments.GapCurve, pinned: gapCurveKeys()},
}

// gapCurveKeys is gapcurve's Summary: the reference objective, then the
// achieved gap and the search's share of shards at each move budget.
func gapCurveKeys() []string {
	keys := []string{"simplex_objective", "gap_at_max_budget"}
	for _, budget := range []int{32, 64, 128, 256, 512, 1024, 2048, 4096} {
		keys = append(keys, fmt.Sprintf("gap_budget_%d", budget), fmt.Sprintf("search_share_budget_%d", budget))
	}
	return keys
}

// regretKeys is regret's Summary: one oracle mean per stress scenario
// plus mean and worst-window regret per controller.
func regretKeys() []string {
	var keys []string
	for _, scn := range []string{"flash-crowd", "adversarial-walk", "diurnal", "correlated-surge"} {
		keys = append(keys, scn+"/clairvoyant_mean_ms")
		for _, leg := range []string{"reactive", "robust", "predictive", "robust+predictive"} {
			keys = append(keys, scn+"/"+leg+"_mean_regret_ms", scn+"/"+leg+"_worst_regret_ms")
		}
	}
	return keys
}

func (s figureSpec) isWallClock(key string) bool {
	return slices.ContainsFunc(s.wallClock, func(pat string) bool {
		ok, _ := path.Match(pat, key)
		return ok
	})
}

// diff lists every way summary departs from want, the figure's entry in
// FIGURES.json: a pinned key missing from either side or differing in
// any bit, a Summary key that is neither pinned nor named wall-clock,
// and a FIGURES.json key the spec no longer pins.
func (s figureSpec) diff(summary, want map[string]float64) []string {
	var msgs []string
	for _, k := range s.pinned {
		got, produced := summary[k]
		w, recorded := want[k]
		switch {
		case !produced:
			msgs = append(msgs, fmt.Sprintf("%s: pinned key %q missing from Summary", s.id, k))
		case !recorded:
			msgs = append(msgs, fmt.Sprintf("%s: pinned key %q missing from %s (run with -update-figures)", s.id, k, figuresFile))
		case math.Float64bits(got) != math.Float64bits(w):
			msgs = append(msgs, fmt.Sprintf("%s: %q = %v, %s pins %v", s.id, k, got, figuresFile, w))
		}
	}
	for _, k := range slices.Sorted(maps.Keys(summary)) {
		if !slices.Contains(s.pinned, k) && !s.isWallClock(k) {
			msgs = append(msgs, fmt.Sprintf("%s: Summary key %q is neither pinned nor named wall-clock in the figure list", s.id, k))
		}
	}
	for _, k := range slices.Sorted(maps.Keys(want)) {
		if !slices.Contains(s.pinned, k) {
			msgs = append(msgs, fmt.Sprintf("%s: %s key %q is not pinned in the figure list", s.id, figuresFile, k))
		}
	}
	return msgs
}

// diffIDs lists the experiment ids on which the figure list, FIGURES.json
// and the experiments registry disagree.
func diffIDs(specs []figureSpec, file map[string]map[string]float64, registry []string) []string {
	var msgs []string
	pinned := map[string]bool{}
	for _, s := range specs {
		pinned[s.id] = s.skip == ""
		if _, ok := file[s.id]; pinned[s.id] && !ok {
			msgs = append(msgs, fmt.Sprintf("%s has no entry for figure %q (run with -update-figures)", figuresFile, s.id))
		}
	}
	for _, id := range slices.Sorted(maps.Keys(file)) {
		if !pinned[id] {
			msgs = append(msgs, fmt.Sprintf("%s names unknown experiment %q", figuresFile, id))
		}
	}
	for _, id := range registry {
		if _, listed := pinned[id]; !listed {
			msgs = append(msgs, fmt.Sprintf("experiment %q is not in the figure list", id))
		}
	}
	return msgs
}

// TestFiguresPinned is the figure licence: every listed experiment, run
// at the published options, must reproduce FIGURES.json exactly. The
// values are pure functions of the seed (CI repeats this at GOMAXPROCS
// 1, 2 and 8), so any difference is a behaviour change, not noise.
// -update-figures rewrites the entries of the figures that ran.
func TestFiguresPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every pinned experiment at full duration")
	}
	file := map[string]map[string]float64{}
	buf, err := os.ReadFile(figuresFile)
	if err == nil {
		err = json.Unmarshal(buf, &file)
	}
	if err != nil && !(*updateFigures && errors.Is(err, fs.ErrNotExist)) {
		t.Fatalf("%s: %v (run with -update-figures to create)", figuresFile, err)
	}
	var mu sync.Mutex // guards file: subtests write it when updating
	if *updateFigures {
		// A parent's cleanup runs after its parallel subtests finish.
		t.Cleanup(func() {
			if t.Failed() {
				return
			}
			buf, err := json.MarshalIndent(file, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(figuresFile, append(buf, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
		})
	} else {
		for _, msg := range diffIDs(figures, file, slices.Sorted(maps.Keys(experiments.All()))) {
			t.Error(msg)
		}
	}
	for _, spec := range figures {
		t.Run(spec.id, func(t *testing.T) {
			if spec.skip != "" {
				t.Skip(spec.skip)
			}
			t.Parallel()
			fig, err := spec.run(benchOptions())
			if err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			if *updateFigures {
				file[spec.id] = map[string]float64{}
				for _, k := range spec.pinned {
					if v, ok := fig.Summary[k]; ok {
						file[spec.id][k] = v
					}
				}
			}
			want := file[spec.id]
			mu.Unlock()
			for _, msg := range spec.diff(fig.Summary, want) {
				t.Error(msg)
			}
		})
	}
}

// TestFigureDiff holds the gate itself: each way a figure can depart
// from FIGURES.json is reported with the offending key or id named.
func TestFigureDiff(t *testing.T) {
	spec := figureSpec{id: "figX", pinned: []string{"ratio", "mean_ms"}, wallClock: []string{"solve_ms_*"}}
	want := map[string]float64{"ratio": 1.5, "mean_ms": 40}
	for _, tc := range []struct {
		name    string
		summary map[string]float64
		want    map[string]float64
		msg     string // substring of the one expected message; "" = none
	}{
		{"equal, wall-clock key ignored", map[string]float64{"ratio": 1.5, "mean_ms": 40, "solve_ms_at_8": 3.2}, want, ""},
		{"changed value", map[string]float64{"ratio": math.Nextafter(1.5, 2), "mean_ms": 40}, want, `"ratio" = 1.5000000000000002`},
		{"pinned key not produced", map[string]float64{"ratio": 1.5}, want, `"mean_ms" missing from Summary`},
		{"pinned key not recorded", map[string]float64{"ratio": 1.5, "mean_ms": 40}, map[string]float64{"ratio": 1.5}, `"mean_ms" missing from FIGURES.json`},
		{"unclassified Summary key", map[string]float64{"ratio": 1.5, "mean_ms": 40, "p99_ms": 90}, want, `"p99_ms" is neither pinned nor named wall-clock`},
		{"stale recorded key", map[string]float64{"ratio": 1.5, "mean_ms": 40}, map[string]float64{"ratio": 1.5, "mean_ms": 40, "old": 1}, `"old" is not pinned`},
	} {
		msgs := spec.diff(tc.summary, tc.want)
		clean := tc.msg == "" && len(msgs) == 0
		named := len(msgs) == 1 && strings.HasPrefix(msgs[0], "figX: ") && strings.Contains(msgs[0], tc.msg)
		if !clean && (tc.msg == "" || !named) {
			t.Errorf("%s: got %q, want one message containing %q", tc.name, msgs, tc.msg)
		}
	}

	specs := []figureSpec{spec, {id: "figY"}, {id: "slow", skip: "too slow"}}
	file := map[string]map[string]float64{"figX": want, "fig7": {}, "slow": {}}
	msgs := diffIDs(specs, file, []string{"figX", "slow", "fig9"})
	for i, sub := range []string{`no entry for figure "figY"`, `unknown experiment "fig7"`, `unknown experiment "slow"`, `"fig9" is not in the figure list`} {
		if len(msgs) != 4 || !strings.Contains(msgs[i], sub) {
			t.Fatalf("diffIDs = %q, want message %d to contain %q", msgs, i, sub)
		}
	}
}

// TestRunFigureFailsOnMissingMetric: a listed metric the figure did not
// produce fails the benchmark instead of being silently skipped.
func TestRunFigureFailsOnMissingMetric(t *testing.T) {
	run := func(experiments.Options) (*experiments.Figure, error) {
		return &experiments.Figure{Summary: map[string]float64{"ratio": 1.5, "solve_ms_at_8": 3}}, nil
	}
	ok := figureSpec{id: "figX", run: run, pinned: []string{"ratio"}, wallClock: []string{"solve_ms_*"}}
	if res := testing.Benchmark(func(b *testing.B) { runFigure(b, ok) }); res.N == 0 || len(res.Extra) != 2 {
		t.Errorf("N = %d, reported %v, want a pass reporting ratio and solve_ms_at_8", res.N, res.Extra)
	}
	for _, bad := range []figureSpec{
		{id: "figX", run: run, pinned: []string{"ratio", "gone"}},
		{id: "figX", run: run, pinned: []string{"ratio"}, wallClock: []string{"tick_ms_*"}},
	} {
		if res := testing.Benchmark(func(b *testing.B) { runFigure(b, bad) }); res.N != 0 {
			t.Errorf("runFigure(%v | %v) passed on a summary lacking a listed metric", bad.pinned, bad.wallClock)
		}
	}
}
