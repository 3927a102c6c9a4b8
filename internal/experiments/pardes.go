// Parallel-DES scaling experiments: how fast the sharded conservative
// simulator turns planet-scale scenarios (generated by
// internal/scenario) into results as the shard count grows. Every
// non-wall-clock value is a function of (seed, shard count) alone, so
// TestFiguresPinned holds it bit for bit at any GOMAXPROCS.
package experiments

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"github.com/servicelayernetworking/slate/internal/scenario"
	"github.com/servicelayernetworking/slate/internal/simrun"
)

// parFingerprint hashes the result fields that must be invariant across
// schedulings of the same (seed, shard count): every counter, the
// latency moments, and the cross-shard message totals.
func parFingerprint(r *simrun.Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%d/%d/%d/%d/%d/%d/%v/%d/%d/%d",
		r.Generated, r.Completed, r.Failed, r.Mean, r.P50, r.P99,
		r.EgressBytes, r.DegradedCalls, r.RemoteFraction,
		r.Parallel.Messages, r.Parallel.Windows, r.Parallel.Events)
	return h.Sum64()
}

// pardesSpec is the moderate generated scenario the scaling sweep runs:
// big enough that sharding matters (16 clusters, 96 services), small
// enough to sweep four shard counts in one figure run.
func pardesSpec(opt Options) scenario.GenSpec {
	simDur := opt.Duration / 5
	if simDur < 2*time.Second {
		simDur = 2 * time.Second
	}
	return scenario.GenSpec{
		Seed:           opt.Seed,
		Clusters:       16,
		Regions:        4,
		Services:       96,
		Classes:        12,
		TailAlpha:      1.8,
		TotalRPS:       4000,
		RemoteFraction: 0.12,
		ChurnEvents:    8,
		HotspotClasses: 2,
		StormClasses:   2,
		Duration:       simDur,
		Warmup:         simDur / 5,
	}
}

// ParallelDES measures the simulation engine on a generated
// 16-cluster/96-service scenario at 1/2/4/8 shards: wall time, and
// speedup over the one-shard run (what simrun.Run executes; the summary
// keeps its historical serial_* keys), the critical-path bound on that
// speedup at each shard count, plus the 4-shard run's result
// fingerprint (counters, latency moments, message totals), which must
// not depend on how the shards were scheduled.
//
// On a single-core host every shard count runs on one thread, so the
// speedups show what sharding costs (barriers, message exchange);
// the CI determinism matrix runs this figure at several GOMAXPROCS
// values where the multi-shard legs spread across cores.
func ParallelDES(opt Options) (*Figure, error) {
	opt = opt.defaults()
	g, err := scenario.Generate(pardesSpec(opt))
	if err != nil {
		return nil, err
	}
	scn := g.Scenario("pardes")
	pol := g.Policy()

	fig := &Figure{
		ID:    "pardes",
		Title: "Parallel DES scaling on a generated 16-cluster scenario",
		Notes: []string{
			fmt.Sprintf("16 clusters / 96 services / 12 classes, %v simulated at 4000 RPS", scn.Duration),
			fmt.Sprintf("GOMAXPROCS %d", runtime.GOMAXPROCS(0)),
			"speedup_shards_N = one-shard wall time (serial_wall_ms) / N-shard wall time",
			"critical_path_shards_N = events / Σ over windows of the busiest shard's events: the speedup an infinitely fast barrier would give",
		},
		Summary: map[string]float64{},
	}

	wall := Series{Name: "wall time", XLabel: "shards", YLabel: "wall ms"}
	speedup := Series{Name: "speedup vs one shard", XLabel: "shards", YLabel: "x"}
	shardCounts := []int{1, 2, 4, 8}
	var one *simrun.Result
	var oneWall time.Duration
	for _, n := range shardCounts {
		start := time.Now()
		res, err := simrun.RunParallel(scn, pol, simrun.ParallelOptions{Shards: n})
		if err != nil {
			return nil, fmt.Errorf("%d shards: %w", n, err)
		}
		w := time.Since(start)
		if n == 1 {
			one, oneWall = res, w
			fig.Summary["serial_wall_ms"] = float64(w) / 1e6
			fig.Summary["serial_mean_ms"] = float64(res.Mean) / 1e6
		}
		if n == 4 {
			fig.Summary["fingerprint_shards_4"] = float64(parFingerprint(res))
		}
		wall.X = append(wall.X, float64(n))
		wall.Y = append(wall.Y, float64(w)/1e6)
		speedup.X = append(speedup.X, float64(n))
		speedup.Y = append(speedup.Y, float64(oneWall)/float64(w))
		key := fmt.Sprintf("shards_%d", n)
		fig.Summary["wall_ms_"+key] = float64(w) / 1e6
		fig.Summary["speedup_"+key] = float64(oneWall) / float64(w)
		fig.Summary["messages_"+key] = float64(res.Parallel.Messages)
		fig.Summary["windows_"+key] = float64(res.Parallel.Windows)
		fig.Summary["critical_path_"+key] = res.Parallel.CriticalPath
		if res.Generated != one.Generated {
			return nil, fmt.Errorf("%d shards generated %d arrivals, one shard %d",
				n, res.Generated, one.Generated)
		}
	}
	fig.Series = append(fig.Series, wall, speedup)
	return fig, nil
}

// ParallelDES1M runs the planet-scale reference scenario — 100 clusters,
// 1000 services, 125 classes, 1M RPS open-loop offered load
// (scenario.Gen100Spec) — through the sharded engine at GOMAXPROCS
// shards and reports raw throughput. The simulated horizon is fixed at
// 1.25s (1s measured) regardless of Options.Duration: at 1M RPS that is
// already ~1.25M request trees, enough for stable rates while keeping
// the figure runnable on a laptop.
func ParallelDES1M(opt Options) (*Figure, error) {
	opt = opt.defaults()
	spec := scenario.Gen100Spec()
	spec.Seed = opt.Seed
	spec.Duration = 1250 * time.Millisecond
	spec.Warmup = 250 * time.Millisecond
	// Churn/hotspot schedules assume the 20s reference horizon; rescale
	// the event count to the short one so dynamics still fire.
	spec.ChurnEvents = 10
	g, err := scenario.Generate(spec)
	if err != nil {
		return nil, err
	}
	scn := g.Scenario("pardes-1m")

	start := time.Now()
	res, err := simrun.RunParallel(scn, g.Policy(), simrun.ParallelOptions{})
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)

	fig := &Figure{
		ID:    "pardes-1m",
		Title: "1M-RPS planet-scale run (100 clusters, 1000 services) on the sharded engine",
		Notes: []string{
			fmt.Sprintf("%v simulated, %v wall, GOMAXPROCS %d", scn.Duration, wall.Round(time.Millisecond), runtime.GOMAXPROCS(0)),
			"spec: scenario.Gen100Spec with 1.25s horizon",
		},
		Summary: map[string]float64{
			"offered_rps":    spec.TotalRPS,
			"generated":      float64(res.Generated),
			"completed":      float64(res.Completed),
			"availability":   res.Availability,
			"mean_ms":        float64(res.Mean) / 1e6,
			"p99_ms":         float64(res.P99) / 1e6,
			"wall_ms":        float64(wall) / 1e6,
			"remote_frac":    res.RemoteFraction,
			"fingerprint":    float64(parFingerprint(res)),
			"egress_dollars": res.EgressCost,
		},
	}
	fig.Summary["shards"] = float64(res.Parallel.Shards)
	fig.Summary["events"] = float64(res.Parallel.Events)
	fig.Summary["events_per_sec"] = float64(res.Parallel.Events) / wall.Seconds()
	fig.Summary["windows"] = float64(res.Parallel.Windows)
	fig.Summary["cross_shard_messages"] = float64(res.Parallel.Messages)
	return fig, nil
}
