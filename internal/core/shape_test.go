package core_test

import (
	"reflect"
	"testing"

	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/lp"
)

// TestChurnShardShape pins the routing LP of one shard of the deployment
// the ctrl-churn benchmark plans (48 clusters, 96 services, 24 classes,
// so 24 shards alike): one demand row per arrival cluster, the
// conservation rows and one load row per pool, 300 in all, over the
// flows and the PWL segments, 984 columns — nominal and at a 25 % robust
// margin alike, the margin being in the load rows' coefficients. The
// two-row LP had 360 rows and 1 044 columns, and at the margin 420 and
// 1 164. The tableau a warm solve of the first shard keeps holds at most
// 3 900 entries: 3 374 nominal and 3 259 at the margin, where the two-row
// LP kept 3 672 and 4 963.
func TestChurnShardShape(t *testing.T) {
	g, demand := ctrlChurnDeployment(t)
	for _, margin := range []float64{0, 0.25} {
		models, err := core.ShardModels(g.Top, g.App, core.Config{DemandMargin: margin}, demand)
		if err != nil {
			t.Fatal(err)
		}
		if len(models) != 24 {
			t.Fatalf("margin %v: %d shards, want 24", margin, len(models))
		}
		for i, m := range models {
			if m.NumConstraints() != 300 || m.NumVars() != 984 {
				t.Errorf("margin %v shard %d: %d rows × %d columns, want 300 × 984", margin, i, m.NumConstraints(), m.NumVars())
			}
		}
		s, w := lp.NewSolver(), lp.NewWorkspace()
		cold, err := s.Solve(w, models[0], nil)
		if err != nil || cold.Status != lp.Optimal {
			t.Fatalf("margin %v: cold solve %v, %v", margin, cold, err)
		}
		warm, err := s.Solve(w, models[0], cold.Basis)
		if err != nil || !warm.Warm {
			t.Fatalf("margin %v: the solve from the optimal basis is not warm (%v)", margin, err)
		}
		n := keptEntries(s)
		t.Logf("margin %v: a warm solve keeps %d entries", margin, n)
		if n == 0 || n > 3900 {
			t.Errorf("margin %v: a warm solve keeps %d entries, want 1 to 3 900", margin, n)
		}
	}
}

// keptEntries reads how many entries the tableau s kept from its last
// solve holds, 0 when it kept none. lp holds them unexported, in
// Solver.t.packed while Solver.t.kept is set, and has no use for the
// count itself.
func keptEntries(s *lp.Solver) int {
	t := reflect.ValueOf(s).Elem().FieldByName("t")
	if t.FieldByName("kept").IsNil() {
		return 0
	}
	return t.FieldByName("packed").Len()
}
