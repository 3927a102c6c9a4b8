package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// KeptTee drives two controllers of one configuration with the same
// windows. Live is a controller as it runs: a shard whose demand alone
// moved resumes from the tableau it kept. Fresh makes every shard forget
// its tableau before each tick, so every warm solve installs its basis from
// the slack basis, as every one did before tableaux were kept. The two
// reach each tick's vertices by different pivots, so their tables may
// part in the last bits, never more.
type KeptTee struct {
	Live, Fresh *Controller
	// Tol bounds the weight difference; MaxDiff is the largest seen.
	Tol, MaxDiff float64
	Mismatches   []string
	// Ticks counts Tick calls; Kept the live shards that resumed.
	Ticks, Kept int
}

// NewKeptTee builds the pair from one configuration.
func NewKeptTee(top *topology.Topology, app *appgraph.App, cfg ControllerConfig) (*KeptTee, error) {
	live, err := NewController(top, app, cfg)
	if err != nil {
		return nil, err
	}
	fresh, err := NewController(top, app, cfg)
	if err != nil {
		return nil, err
	}
	return &KeptTee{Live: live, Fresh: fresh, Tol: 1e-9}, nil
}

func (t *KeptTee) failf(format string, args ...any) {
	if len(t.Mismatches) < 20 {
		t.Mismatches = append(t.Mismatches, fmt.Sprintf("tick %d: ", t.Ticks)+fmt.Sprintf(format, args...))
	}
}

// Tick ticks both controllers and compares what they published and how
// their shards were served: the same counters but for the kept solves,
// which Fresh never makes.
func (t *KeptTee) Tick(stats []telemetry.WindowStats, window time.Duration) {
	t.Ticks++
	for _, sh := range t.Fresh.opt.shards {
		sh.opt.solver.Forget()
	}
	before := t.Live.OptimizerStats().KeptSolves
	live, err := t.Live.Tick(stats, window)
	fresh, freshErr := t.Fresh.Tick(stats, window)
	if fmt.Sprint(err) != fmt.Sprint(freshErr) {
		t.failf("err = %v, fresh %v", err, freshErr)
	}
	ls, fs := t.Live.OptimizerStats(), t.Fresh.OptimizerStats()
	t.Kept += int(ls.KeptSolves - before)
	if fs.KeptSolves != 0 {
		t.failf("fresh controller resumed %d solves", fs.KeptSolves)
	}
	ls.KeptSolves = 0
	if ls != fs {
		t.failf("OptimizerStats = %+v, fresh %+v", ls, fs)
	}
	d, err := vertexDiff(live, fresh)
	t.MaxDiff = max(t.MaxDiff, d)
	if err != nil || d > t.Tol {
		t.failf("tables part by %v (%v):\nlive  %v\nfresh %v", d, err, live, fresh)
	}
}

// vertexDiff returns the largest weight difference between two tables
// that route by the same solution — one version, the same rules, each
// over the same clusters — and an error naming what differs when they do
// not.
func vertexDiff(a, b *routing.Table) (float64, error) {
	if a.Version != b.Version || !slices.Equal(a.Keys(), b.Keys()) {
		return 0, fmt.Errorf("version %d with %d rules against version %d with %d", a.Version, len(a.Keys()), b.Version, len(b.Keys()))
	}
	var diff float64
	for _, k := range a.Keys() {
		ad, _ := a.Get(k)
		bd, _ := b.Get(k)
		as, bs := slices.Sorted(maps.Keys(ad.Weights())), slices.Sorted(maps.Keys(bd.Weights()))
		if !slices.Equal(as, bs) {
			return 0, fmt.Errorf("rule %s over %v against %v", k, as, bs)
		}
		for c, w := range ad.All() {
			diff = max(diff, math.Abs(w-bd.Weight(c)))
		}
	}
	return diff, nil
}
