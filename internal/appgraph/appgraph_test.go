package appgraph

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/servicelayernetworking/slate/internal/topology"
)

func twoClusterTop() *topology.Topology {
	return topology.TwoClusters(40 * time.Millisecond)
}

func TestLinearChainValidates(t *testing.T) {
	app := LinearChain(ChainOptions{})
	if err := app.Validate(twoClusterTop()); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(app.Services) != 4 { // gateway + 3
		t.Errorf("services = %d, want 4", len(app.Services))
	}
	if app.FrontendService() != "gateway" {
		t.Errorf("frontend = %q, want gateway", app.FrontendService())
	}
	// Chain depth: gateway -> svc-1 -> svc-2 -> svc-3.
	depth := 0
	for n := app.Classes[0].Root; n != nil; {
		depth++
		if len(n.Children) == 0 {
			break
		}
		if len(n.Children) != 1 {
			t.Fatalf("chain node %q has %d children, want 1", n.Service, len(n.Children))
		}
		n = n.Children[0]
	}
	if depth != 4 {
		t.Errorf("chain depth = %d, want 4", depth)
	}
}

func TestAnomalyDetectionShape(t *testing.T) {
	app := AnomalyDetection(AnomalyOptions{})
	if err := app.Validate(twoClusterTop()); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	db := app.Service(AnomalyDB)
	if db.PlacedIn(topology.West) {
		t.Error("DB should be absent in West (paper §4.3)")
	}
	if !db.PlacedIn(topology.East) {
		t.Error("DB should be placed in East")
	}
	// DB response must be ResponseRatio (10x) larger than MP response.
	root := app.Classes[0].Root
	mp := root.Children[0]
	dbCall := mp.Children[0]
	if dbCall.Work.ResponseBytes != 10*mp.Work.ResponseBytes {
		t.Errorf("DB response %d, MP response %d: want 10x ratio",
			dbCall.Work.ResponseBytes, mp.Work.ResponseBytes)
	}
}

func TestTwoClassAppShape(t *testing.T) {
	app := TwoClassApp(TwoClassOptions{})
	if err := app.Validate(twoClusterTop()); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	l, h := app.Class("L"), app.Class("H")
	if l == nil || h == nil {
		t.Fatal("missing L or H class")
	}
	lt := l.Root.Children[0].Work.MeanServiceTime
	ht := h.Root.Children[0].Work.MeanServiceTime
	if ht <= lt {
		t.Errorf("H time %v not greater than L time %v", ht, lt)
	}
}

func TestFanoutAppParallel(t *testing.T) {
	app := FanoutApp(FanoutOptions{Width: 5})
	if err := app.Validate(twoClusterTop()); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	root := app.Classes[0].Root
	if !root.Parallel {
		t.Error("fanout root should issue children in parallel")
	}
	if len(root.Children) != 5 {
		t.Errorf("children = %d, want 5", len(root.Children))
	}
}

// callRate returns, for each service, the expected number of calls that
// service receives per one root request of the class: the product of
// fan-out Counts along the path, summed over all tree nodes for the
// service.
func callRate(c *Class) map[ServiceID]float64 {
	rates := make(map[ServiceID]float64)
	var visit func(n *CallNode, mult float64)
	visit = func(n *CallNode, mult float64) {
		m := mult * float64(n.Count)
		rates[n.Service] += m
		for _, ch := range n.Children {
			visit(ch, m)
		}
	}
	visit(c.Root, 1)
	return rates
}

func TestCallRateMultipliers(t *testing.T) {
	// root(1) -> a(2) -> b(3): b receives 2*3 = 6 calls per root request.
	// root also calls b directly once: total 7.
	app := &App{
		Name: "mult",
		Services: map[ServiceID]*Service{
			"root": {ID: "root", Placement: Uniform(ReplicaPool{1, 1}, topology.West)},
			"a":    {ID: "a", Placement: Uniform(ReplicaPool{1, 1}, topology.West)},
			"b":    {ID: "b", Placement: Uniform(ReplicaPool{1, 1}, topology.West)},
		},
		Classes: []*Class{{Name: "c", Root: &CallNode{
			Service: "root", Method: "GET", Path: "/", Count: 1,
			Children: []*CallNode{
				{Service: "a", Method: "GET", Path: "/a", Count: 2,
					Children: []*CallNode{{Service: "b", Method: "GET", Path: "/b", Count: 3}}},
				{Service: "b", Method: "GET", Path: "/b2", Count: 1},
			},
		}}},
	}
	top := topology.NewBuilder(0).AddCluster(topology.West, "w").MustBuild()
	if err := app.Validate(top); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	rates := callRate(app.Classes[0])
	if !almostEqual(rates["root"], 1) {
		t.Errorf("root rate = %v, want 1", rates["root"])
	}
	if !almostEqual(rates["a"], 2) {
		t.Errorf("a rate = %v, want 2", rates["a"])
	}
	if !almostEqual(rates["b"], 7) {
		t.Errorf("b rate = %v, want 7", rates["b"])
	}
}

func TestValidateErrors(t *testing.T) {
	top := twoClusterTop()
	base := func() *App { return LinearChain(ChainOptions{}) }

	t.Run("unknown service in tree", func(t *testing.T) {
		app := base()
		app.Classes[0].Root.Children[0].Service = "ghost"
		wantErr(t, app.Validate(top), "unknown service")
	})
	t.Run("zero count", func(t *testing.T) {
		app := base()
		app.Classes[0].Root.Children[0].Count = 0
		wantErr(t, app.Validate(top), "Count 0")
	})
	t.Run("root count not one", func(t *testing.T) {
		app := base()
		app.Classes[0].Root.Count = 2
		wantErr(t, app.Validate(top), "root has Count 2")
	})
	t.Run("unplaced service", func(t *testing.T) {
		app := base()
		app.Services["svc-1"].Placement = nil
		wantErr(t, app.Validate(top), "not placed")
	})
	t.Run("unknown cluster", func(t *testing.T) {
		app := base()
		app.Services["svc-1"].Placement["mars"] = ReplicaPool{1, 1}
		wantErr(t, app.Validate(top), "unknown cluster")
	})
	t.Run("zero concurrency", func(t *testing.T) {
		app := base()
		app.Services["svc-1"].Placement[topology.West] = ReplicaPool{Replicas: 2, Concurrency: 0}
		wantErr(t, app.Validate(top), "zero concurrency")
	})
	t.Run("duplicate class", func(t *testing.T) {
		app := base()
		app.Classes = append(app.Classes, &Class{Name: "default", Root: app.Classes[0].Root})
		wantErr(t, app.Validate(top), "duplicate class")
	})
	t.Run("mismatched frontend", func(t *testing.T) {
		app := base()
		other := &CallNode{Service: "svc-1", Method: "GET", Path: "/x", Count: 1}
		app.Classes = append(app.Classes, &Class{Name: "other", Root: other})
		wantErr(t, app.Validate(top), "must share a frontend")
	})
	t.Run("no classes", func(t *testing.T) {
		app := base()
		app.Classes = nil
		wantErr(t, app.Validate(top), "no traffic classes")
	})
}

func wantErr(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), substr) {
		t.Fatalf("err = %v, want containing %q", err, substr)
	}
}

func TestServersAndPlacedIn(t *testing.T) {
	p := ReplicaPool{Replicas: 3, Concurrency: 4}
	if p.Servers() != 12 {
		t.Errorf("Servers = %d, want 12", p.Servers())
	}
	s := &Service{ID: "s", Placement: map[topology.ClusterID]ReplicaPool{
		topology.West: {Replicas: 0, Concurrency: 4},
		topology.East: {Replicas: 1, Concurrency: 1},
	}}
	if s.PlacedIn(topology.West) {
		t.Error("zero replicas should not count as placed")
	}
	if !s.PlacedIn(topology.East) {
		t.Error("East placement missing")
	}
}

func TestServiceClustersOrder(t *testing.T) {
	top := topology.GCPTopology()
	s := &Service{ID: "s", Placement: Uniform(ReplicaPool{1, 1}, topology.SC, topology.OR)}
	got := s.Clusters(top)
	// topology order is or, ut, iow, sc.
	if len(got) != 2 || got[0] != topology.OR || got[1] != topology.SC {
		t.Errorf("Clusters = %v, want [or sc]", got)
	}
}

func TestClassNodes(t *testing.T) {
	app := AnomalyDetection(AnomalyOptions{})
	nodes := app.Classes[0].Nodes()
	want := []ServiceID{AnomalyFR, AnomalyMP, AnomalyDB}
	if len(nodes) != len(want) {
		t.Fatalf("nodes = %d, want %d", len(nodes), len(want))
	}
	for i, n := range nodes {
		if n.Service != want[i] {
			t.Fatalf("node %d is %s, want %s (pre-order)", i, n.Service, want[i])
		}
	}
}

func TestUniformCopies(t *testing.T) {
	m := Uniform(ReplicaPool{2, 2}, topology.West, topology.East)
	if len(m) != 2 {
		t.Fatalf("len = %d", len(m))
	}
	if m[topology.West].Servers() != 4 {
		t.Errorf("Servers = %d, want 4", m[topology.West].Servers())
	}
}

func TestCallRateMatchesBruteForceProperty(t *testing.T) {
	// Property: callRate equals a brute-force expansion that walks every
	// path with explicit multiplication, on randomly shaped trees.
	f := func(shape []uint8) bool {
		if len(shape) == 0 {
			return true
		}
		// Build a random tree over up to 4 services, guided by shape.
		services := []ServiceID{"s0", "s1", "s2", "s3"}
		idx := 0
		next := func(n int) int {
			if idx >= len(shape) {
				return 0
			}
			v := int(shape[idx]) % n
			idx++
			return v
		}
		var build func(depth int) *CallNode
		build = func(depth int) *CallNode {
			n := &CallNode{
				Service: services[next(len(services))],
				Method:  "GET", Path: "/",
				Count: next(3) + 1,
			}
			if depth < 3 {
				for k := next(3); k > 0; k-- {
					n.Children = append(n.Children, build(depth+1))
				}
			}
			return n
		}
		root := build(0)
		root.Count = 1
		cl := &Class{Name: "c", Root: root}
		got := callRate(cl)

		// Brute force: accumulate multiplier products along paths.
		want := map[ServiceID]float64{}
		var walk func(n *CallNode, mult float64)
		walk = func(n *CallNode, mult float64) {
			m := mult * float64(n.Count)
			want[n.Service] += m
			for _, ch := range n.Children {
				walk(ch, m)
			}
		}
		walk(root, 1)
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if !almostEqual(got[k], v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
