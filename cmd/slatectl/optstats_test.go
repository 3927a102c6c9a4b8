package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/servicelayernetworking/slate/internal/obs"
)

func TestOptStats(t *testing.T) {
	const exposition = `# HELP slate_global_search_solves Cumulative dirty-shard solves served by the anytime local search.
# TYPE slate_global_search_solves gauge
slate_global_search_solves 28
slate_global_search_simplex_wins 4
slate_global_search_gap_abandoned 4
slate_global_lp_warm_solves 60
slate_global_lp_kept_solves 57
slate_global_lp_dual_repairs 13
slate_global_lp_cold_solves 32
slate_global_subproblems 32
slate_global_subproblem_solves 96
slate_global_subproblem_skips 12
slate_global_ticks_total 5
`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != obs.MetricsPath {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte(exposition))
	}))
	defer srv.Close()

	var out strings.Builder
	if err := optStats(&out, []string{srv.URL}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"search solves (race won)",
		"28",
		"simplex wins (race lost)",
		"search abandoned (gap/infeasible)",
		"LP warm solves",
		"resumed from the kept tableau",
		"57",
		"repaired by dual pivots",
		"13",
		"subproblem skips",
		"search win rate",
		"87.5%",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("optstats output missing %q:\n%s", want, got)
		}
	}

	if err := optStats(&out, nil); err == nil {
		t.Error("expected usage error with no args")
	}
}

func TestOptStatsNoSolverMetrics(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("other_metric 1\n"))
	}))
	defer srv.Close()
	var out strings.Builder
	if err := optStats(&out, []string{srv.URL}); err == nil {
		t.Error("expected an error when no slate_global_* metrics are exposed")
	}
}
