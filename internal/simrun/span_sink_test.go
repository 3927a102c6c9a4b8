package simrun

import (
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/obs"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
	"github.com/servicelayernetworking/slate/internal/workload"
)

type memSink struct{ spans []telemetry.Span }

func (m *memSink) WriteSpan(s telemetry.Span) error {
	m.spans = append(m.spans, s)
	return nil
}

func spanScenario(sink SpanSink) Scenario {
	top := topology.TwoClusters(40 * time.Millisecond)
	app := appgraph.LinearChain(appgraph.ChainOptions{
		Services:        3,
		MeanServiceTime: 5 * time.Millisecond,
		Pool:            appgraph.ReplicaPool{Replicas: 2, Concurrency: 4},
		Clusters:        []topology.ClusterID{topology.West, topology.East},
	})
	return Scenario{
		Name:     "span-export",
		Top:      top,
		App:      app,
		Workload: []workload.Spec{workload.Steady("default", topology.West, 50)},
		Duration: 10 * time.Second,
		Warmup:   2 * time.Second,
		Seed:     11,
		SpanSink: sink,
	}
}

// TestSpanSinkExportsReconstructibleTraces runs a small chain scenario
// with a span sink and checks the export end to end: every trace
// rebuilds into a single-root tree whose depth matches the call chain.
// The obs tests hold obs.SpanWriter's JSONL to a lossless round trip.
func TestSpanSinkExportsReconstructibleTraces(t *testing.T) {
	sink := &memSink{}
	res, err := Run(spanScenario(sink), Static("local", routing.EmptyTable()))
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.spans) == 0 {
		t.Fatal("sink received no spans")
	}
	// 4 call-tree nodes per request (gateway + 3 chain services).
	if got, want := len(sink.spans), int(res.Completed)*4; got != want {
		t.Fatalf("exported %d spans, want %d (4 per completed request)", got, want)
	}

	byTrace := obs.GroupTraces(sink.spans)
	if len(byTrace) != int(res.Completed) {
		t.Fatalf("%d traces, want %d (one per completed request)", len(byTrace), res.Completed)
	}
	for id, spans := range byTrace {
		tree, err := telemetry.BuildTree(spans)
		if err != nil {
			t.Fatalf("trace %d: %v", id, err)
		}
		if len(tree.Orphans) != 0 {
			t.Fatalf("trace %d: %d orphan spans", id, len(tree.Orphans))
		}
		depth := 0
		for n := tree.Root; ; n = n.Children[0] {
			depth++
			if n.Span.End < n.Span.Start {
				t.Fatalf("trace %d: span %d ends before it starts", id, n.Span.ID)
			}
			if len(n.Children) == 0 {
				break
			}
			if len(n.Children) != 1 {
				t.Fatalf("trace %d: chain node has %d children", id, len(n.Children))
			}
		}
		if depth != 4 {
			t.Fatalf("trace %d: depth %d, want 4", id, depth)
		}
	}
}
