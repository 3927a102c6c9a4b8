package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/lp"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// ShardBuilds partitions app as the decomposed planner does and returns
// a function that builds every shard's formulation cold under cfg, as a
// cold start or a restored leader does, for tests outside the package
// that count what the builds keep.
func ShardBuilds(top *topology.Topology, app *appgraph.App, cfg Config, demand Demand) func() ([]any, error) {
	s := newShardedOptimizer(top, app, cfg, 0, true)
	profiles := DefaultProfiles(app, top, demand)
	return func() ([]any, error) {
		out := make([]any, len(s.shards))
		for i, sh := range s.shards {
			f, err := buildFormulation(top, sh.app, s.cfg, demand, profiles)
			if err != nil {
				return nil, err
			}
			out[i] = f
		}
		return out, nil
	}
}

// ShardModels builds every shard's routing LP under cfg, as ShardBuilds
// does, for tests outside the package that measure its shape and what a
// solve of it keeps.
func ShardModels(top *topology.Topology, app *appgraph.App, cfg Config, demand Demand) ([]*lp.Model, error) {
	fs, err := ShardBuilds(top, app, cfg, demand)()
	if err != nil {
		return nil, err
	}
	out := make([]*lp.Model, len(fs))
	for i, f := range fs {
		out[i] = f.(*formulation).model
	}
	return out, nil
}

// TestFormulationNamesEveryIndex: the routing LP holds no names, so
// core names its rows and columns from the formulation when an lp error
// surfaces. On a robust formulation, which has the nominal one's rows
// and columns, each index gets a name of its kind's shape, no two alike,
// and as many of each kind as the formulation holds.
func TestFormulationNamesEveryIndex(t *testing.T) {
	p := twoClassProblem(Config{DemandMargin: 0.25})
	f, err := buildFormulation(p.Top, p.App, p.Config.normalized(), p.Demand, p.Profiles)
	if err != nil {
		t.Fatal(err)
	}
	want := struct{ rows, cols map[string]int }{map[string]int{}, map[string]int{}}
	for _, dr := range f.demands {
		if dr.con >= 0 {
			want.rows["demand"]++
		}
	}
	for ni, nr := range f.nodes {
		want.cols["x"] += len(f.flow[ni])
		if nr.parent == -1 {
			continue
		}
		for j := range f.clusters {
			if len(f.conserveTerms(nil, ni, j)) > 0 {
				want.rows["conserve"]++
			}
		}
	}
	for _, pr := range f.pools {
		want.rows["load"]++
		want.cols["seg"] += len(pr.segVars)
	}
	for _, c := range []struct {
		what string
		n    int
		name func(int) string
		want map[string]int
	}{
		{"row", f.model.NumConstraints(), f.rowName, want.rows},
		{"column", f.model.NumVars(), f.colName, want.cols},
	} {
		got := map[string]int{}
		seen := map[string]int{}
		for i := range c.n {
			name := c.name(i)
			kind, _, ok := strings.Cut(name, "[")
			if !ok || !strings.HasSuffix(name, "]") {
				t.Fatalf("%s %d is named %q", c.what, i, name)
			}
			if j, dup := seen[name]; dup {
				t.Fatalf("%ss %d and %d are both named %q", c.what, j, i, name)
			}
			seen[name] = i
			got[kind]++
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s names by kind: %v, the formulation holds %v", c.what, got, c.want)
		}
	}
	if got := f.rowName(f.model.NumConstraints()); got != fmt.Sprintf("#%d", f.model.NumConstraints()) {
		t.Errorf("a row past the last is named %q", got)
	}
}

// TestLPErrorsNameTheirRowsAndColumns: every lp error core surfaces
// reads as it did when the model stored names — its row and column by
// what they stand for, never by index — and still unwraps to the
// *lp.Error with the indices.
func TestLPErrorsNameTheirRowsAndColumns(t *testing.T) {
	top, app := gcpScenario()
	demand := gcpDemand(1000, 100, 1000, 100)
	profiles := DefaultProfiles(app, top, demand)
	o := &optimizer{top: top, app: app, cfg: Config{}.normalized(), solver: lp.NewSolver()}
	if err := o.ensure(demand, profiles); err != nil {
		t.Fatal(err)
	}
	f := o.f
	pr := f.pools[len(f.pools)-1]
	lt := pr.linkTerms[0]
	flow := f.colName(int(lt.v))
	if !strings.HasPrefix(flow, "x[default#") {
		t.Fatalf("a flow column is named %q", flow)
	}

	// A non-finite coefficient through SetCoef, as update sets a load
	// row's scale.
	check := func(err error, want string, row, col int) {
		t.Helper()
		if err == nil || err.Error() != want {
			t.Errorf("error reads %v, want %q", err, want)
		}
		var le *lp.Error
		if !errors.As(err, &le) || le.Row != row || le.Col != col {
			t.Errorf("%v does not unwrap to an *lp.Error at row %d, column %d", err, row, col)
		}
	}
	check(f.named(f.model.SetCoef(pr.con, lt.v, math.NaN())),
		fmt.Sprintf("lp: SetCoef: constraint %q given non-finite coefficient NaN for %s", "load["+pr.key.String()+"]", flow),
		pr.con, int(lt.v))
	dr := f.demands[0]
	check(f.named(f.model.SetRHS(dr.con, math.Inf(1))),
		fmt.Sprintf("lp: SetRHS: constraint %q given non-finite rhs +Inf", fmt.Sprintf("demand[default][%s]", dr.ci)),
		dr.con, -1)

	// A negative bound through SetUpper, as update sets a segment's width.
	check(f.named(f.model.SetUpper(pr.segVars[1], -1)),
		fmt.Sprintf("lp: SetUpper: variable seg[%s][1] given upper bound -1 outside [0, +Inf]", pr.key),
		-1, int(pr.segVars[1]))

	// A CheckFeasible failure: the nominal plan of a near-capacity chain
	// pushed past its utilization cap, as TestRobustBoxProtectsAgainstSurge
	// has it.
	nom, err := chainProblem(80*time.Millisecond, 640, 100, Config{}).Optimize(1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = EvaluateTable(chainProblem(80*time.Millisecond, 800, 125, Config{}), nom.Table)
	var le *lp.Error
	if !errors.As(err, &le) || le.Col < 0 {
		t.Fatalf("EvaluateTable of an overloaded table: %v, want an lp error about a column", err)
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "core: table infeasible: lp: variable seg[") || strings.Contains(msg, "variable #") {
		t.Errorf("EvaluateTable of an overloaded table: %q, want it to name its PWL segment", msg)
	}
}

// TestNonFiniteMarginIsAnError: an infinite robust margin would put an
// infinite coefficient in every load row, a NaN one a NaN coefficient,
// and a negative one would shrink the loads the segments are priced at;
// each is an error before any row is built, not a panic in the build.
func TestNonFiniteMarginIsAnError(t *testing.T) {
	for _, m := range []float64{math.Inf(1), math.NaN(), -0.25} {
		if _, err := twoClassProblem(Config{DemandMargin: m}).Optimize(1); err == nil || !strings.Contains(err.Error(), "margin") {
			t.Errorf("DemandMargin %v: %v, want an error naming the margin", m, err)
		}
	}
}
