package appgraph

import (
	"strings"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// anomalyTrace builds a synthetic FR -> MP -> DB trace: FR spans 100ms,
// MP 80ms within it, DB 50ms within that.
func anomalyTrace(traceID telemetry.TraceID, scale time.Duration) []telemetry.Span {
	ms := func(n int) time.Duration { return time.Duration(n) * scale }
	return []telemetry.Span{
		{Trace: traceID, ID: 1, Parent: 0, Service: "fr", Method: "GET", Path: "/detect",
			Start: ms(0), End: ms(100), ReqBytes: 512, RespBytes: 100_000},
		{Trace: traceID, ID: 2, Parent: 1, Service: "mp", Method: "GET", Path: "/analyze",
			Start: ms(10), End: ms(90), ReqBytes: 1024, RespBytes: 100_000},
		{Trace: traceID, ID: 3, Parent: 2, Service: "db", Method: "GET", Path: "/query",
			Start: ms(20), End: ms(70), ReqBytes: 2048, RespBytes: 1_000_000},
	}
}

func TestFromTraceStructureAndWork(t *testing.T) {
	cl, err := FromTrace("detect", anomalyTrace(1, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if cl.Root.Service != "fr" || cl.Root.Children[0].Service != "mp" ||
		cl.Root.Children[0].Children[0].Service != "db" {
		t.Fatalf("learned wrong structure: %v", shapeString(cl.Root))
	}
	// Exclusive times: FR 100-80=20ms, MP 80-50=30ms, DB 50ms.
	fr, mp, db := cl.Root, cl.Root.Children[0], cl.Root.Children[0].Children[0]
	if fr.Work.MeanServiceTime != 20*time.Millisecond {
		t.Errorf("FR exclusive = %v, want 20ms", fr.Work.MeanServiceTime)
	}
	if mp.Work.MeanServiceTime != 30*time.Millisecond {
		t.Errorf("MP exclusive = %v, want 30ms", mp.Work.MeanServiceTime)
	}
	if db.Work.MeanServiceTime != 50*time.Millisecond {
		t.Errorf("DB exclusive = %v, want 50ms", db.Work.MeanServiceTime)
	}
	if db.Work.ResponseBytes != 1_000_000 {
		t.Errorf("DB resp bytes = %d", db.Work.ResponseBytes)
	}
	if cl.Root.Count != 1 {
		t.Errorf("root count = %d", cl.Root.Count)
	}
}

func TestFromTraceCollapsesRepeatedCalls(t *testing.T) {
	// Root calls the same backend endpoint 3 times sequentially.
	spans := []telemetry.Span{
		{Trace: 1, ID: 1, Parent: 0, Service: "root", Method: "GET", Path: "/", Start: 0, End: 100 * time.Millisecond},
		{Trace: 1, ID: 2, Parent: 1, Service: "be", Method: "GET", Path: "/q", Start: 10 * time.Millisecond, End: 20 * time.Millisecond},
		{Trace: 1, ID: 3, Parent: 1, Service: "be", Method: "GET", Path: "/q", Start: 30 * time.Millisecond, End: 44 * time.Millisecond},
		{Trace: 1, ID: 4, Parent: 1, Service: "be", Method: "GET", Path: "/q", Start: 50 * time.Millisecond, End: 62 * time.Millisecond},
	}
	cl, err := FromTrace("c", spans)
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Root.Children) != 1 {
		t.Fatalf("children = %d, want 1 collapsed", len(cl.Root.Children))
	}
	ch := cl.Root.Children[0]
	if ch.Count != 3 {
		t.Errorf("count = %d, want 3", ch.Count)
	}
	// Mean of 10, 14, 12 ms = 12ms.
	if ch.Work.MeanServiceTime != 12*time.Millisecond {
		t.Errorf("mean work = %v, want 12ms", ch.Work.MeanServiceTime)
	}
	if cl.Root.Parallel {
		t.Error("sequential repeats should not mark parent parallel")
	}
}

func TestFromTraceDetectsParallelism(t *testing.T) {
	spans := []telemetry.Span{
		{Trace: 1, ID: 1, Parent: 0, Service: "agg", Method: "GET", Path: "/", Start: 0, End: 50 * time.Millisecond},
		{Trace: 1, ID: 2, Parent: 1, Service: "s1", Method: "GET", Path: "/a", Start: 5 * time.Millisecond, End: 40 * time.Millisecond},
		{Trace: 1, ID: 3, Parent: 1, Service: "s2", Method: "GET", Path: "/b", Start: 6 * time.Millisecond, End: 42 * time.Millisecond},
	}
	cl, err := FromTrace("c", spans)
	if err != nil {
		t.Fatal(err)
	}
	if !cl.Root.Parallel {
		t.Error("overlapping children should mark parent parallel")
	}
	// Exclusive time subtracts the union [5,42] = 37ms -> 13ms.
	if got := cl.Root.Work.MeanServiceTime; got != 13*time.Millisecond {
		t.Errorf("root exclusive = %v, want 13ms (interval union)", got)
	}
}

func TestFromTracesAveragesWork(t *testing.T) {
	traces := [][]telemetry.Span{
		anomalyTrace(1, time.Millisecond),
		anomalyTrace(2, 2*time.Millisecond), // same shape, 2x slower
	}
	cl, err := FromTraces("detect", traces)
	if err != nil {
		t.Fatal(err)
	}
	// DB exclusive: (50 + 100) / 2 = 75ms.
	db := cl.Root.Children[0].Children[0]
	if db.Work.MeanServiceTime != 75*time.Millisecond {
		t.Errorf("averaged DB work = %v, want 75ms", db.Work.MeanServiceTime)
	}
}

func TestFromTracesRejectsShapeMismatch(t *testing.T) {
	other := []telemetry.Span{
		{Trace: 3, ID: 1, Parent: 0, Service: "fr", Method: "GET", Path: "/detect", Start: 0, End: time.Millisecond},
	}
	_, err := FromTraces("detect", [][]telemetry.Span{anomalyTrace(1, time.Millisecond), other})
	if err == nil || !strings.Contains(err.Error(), "shape") {
		t.Fatalf("err = %v, want shape mismatch", err)
	}
}

func TestFromTraceErrors(t *testing.T) {
	if _, err := FromTrace("c", nil); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := FromTraces("c", nil); err == nil {
		t.Error("no traces accepted")
	}
	orphaned := []telemetry.Span{
		{Trace: 1, ID: 1, Parent: 0, Service: "a"},
		{Trace: 1, ID: 5, Parent: 99, Service: "lost"},
	}
	if _, err := FromTrace("c", orphaned); err == nil {
		t.Error("orphan spans accepted")
	}
}

func TestLearnedClassIsUsableInApp(t *testing.T) {
	// A learned class slots into an App and validates, closing the loop:
	// traces -> model -> optimizer input.
	cl, err := FromTrace("detect", anomalyTrace(1, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	top := topology.TwoClusters(40 * time.Millisecond)
	app := &App{
		Name: "learned",
		Services: map[ServiceID]*Service{
			"fr": {ID: "fr", Placement: Uniform(ReplicaPool{Replicas: 1, Concurrency: 8}, "west", "east")},
			"mp": {ID: "mp", Placement: Uniform(ReplicaPool{Replicas: 1, Concurrency: 8}, "west", "east")},
			"db": {ID: "db", Placement: Uniform(ReplicaPool{Replicas: 1, Concurrency: 8}, "east")},
		},
		Classes: []*Class{cl},
	}
	if err := app.Validate(top); err != nil {
		t.Fatalf("learned app invalid: %v", err)
	}
	rates := callRate(cl)
	if !almostEqual(rates["db"], 1) {
		t.Errorf("db call rate = %v", rates["db"])
	}
}
