package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/telemetry"
)

func demoTrace() []telemetry.Span {
	return []telemetry.Span{
		{Trace: 0xabc, ID: 1, Parent: 0, Service: "frontend", Cluster: "west",
			Class: "checkout", Method: "POST", Path: "/cart", Start: 0,
			End: 30 * time.Millisecond, ReqBytes: 100, RespBytes: 2048},
		{Trace: 0xabc, ID: 2, Parent: 1, Service: "backend", Cluster: "east",
			Class: "checkout", Method: "GET", Path: "/stock/:id",
			Start: 5 * time.Millisecond, End: 20 * time.Millisecond,
			ReqBytes: 64, RespBytes: 512, Remote: true},
		{Trace: 0xabc, ID: 3, Parent: 1, Service: "backend", Cluster: "west",
			Class: "checkout", Method: "GET", Path: "/price/:id",
			Start: 6 * time.Millisecond, End: 12 * time.Millisecond},
	}
}

func TestSpanWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sw := NewSpanWriter(&buf)
	spans := demoTrace()
	if err := sw.WriteSpans(spans); err != nil {
		t.Fatal(err)
	}
	if sw.Count() != len(spans) {
		t.Fatalf("Count = %d, want %d", sw.Count(), len(spans))
	}
	if got := strings.Count(buf.String(), "\n"); got != len(spans) {
		t.Fatalf("JSONL must be one line per span, got %d lines:\n%s", got, buf.String())
	}

	back, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(spans) {
		t.Fatalf("read %d spans, want %d", len(back), len(spans))
	}
	for i := range spans {
		if back[i] != spans[i] {
			t.Fatalf("span %d drifted through JSONL:\ngot  %+v\nwant %+v", i, back[i], spans[i])
		}
	}
}

// TestSpanDumpReconstructsTrace is the offline-analysis contract: a
// JSONL dump groups back into traces whose call trees BuildTree can
// reconstruct.
func TestSpanDumpReconstructsTrace(t *testing.T) {
	var buf bytes.Buffer
	sw := NewSpanWriter(&buf)
	if err := sw.WriteSpans(demoTrace()); err != nil {
		t.Fatal(err)
	}
	// A second, single-span trace interleaved in the same dump.
	if err := sw.WriteSpan(telemetry.Span{Trace: 0xdef, ID: 9, Service: "frontend", Cluster: "east", Class: "browse"}); err != nil {
		t.Fatal(err)
	}

	spans, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	byTrace := GroupTraces(spans)
	if len(byTrace) != 2 {
		t.Fatalf("got %d traces, want 2", len(byTrace))
	}
	tree, err := telemetry.BuildTree(byTrace[0xabc])
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root.Span.Service != "frontend" || len(tree.Root.Children) != 2 {
		t.Fatalf("reconstructed tree wrong: root %q with %d children",
			tree.Root.Span.Service, len(tree.Root.Children))
	}
	if len(tree.Orphans) != 0 {
		t.Fatalf("unexpected orphans: %d", len(tree.Orphans))
	}
	if tree.EgressBytes() == 0 {
		t.Fatal("remote hop must contribute egress bytes")
	}
}

// interleavedTraces returns traces traces of three spans each, their
// spans interleaved the way a drain of several sidecars delivers them.
func interleavedTraces(traces int) []telemetry.Span {
	var out []telemetry.Span
	for hop := 0; hop < 3; hop++ {
		for tr := 0; tr < traces; tr++ {
			out = append(out, telemetry.Span{Trace: telemetry.TraceID(tr + 1), ID: telemetry.SpanID(3*tr + hop + 1)})
		}
	}
	return out
}

// drainedTraces returns traces traces of three spans each in two
// drains, each sorted by trace the way emul.Mesh.DrainSpans delivers
// them: every trace's spans sit together, except the one in flight at
// the drain boundary.
func drainedTraces(traces int) []telemetry.Span {
	var first, second []telemetry.Span
	for tr := 0; tr < traces; tr++ {
		for hop := 0; hop < 3; hop++ {
			s := telemetry.Span{Trace: telemetry.TraceID(tr + 1), ID: telemetry.SpanID(3*tr + hop + 1)}
			if tr > traces/2 || tr == traces/2 && hop == 0 {
				second = append(second, s)
			} else {
				first = append(first, s)
			}
		}
	}
	return append(first, second...)
}

// TestGroupTracesExactGroups: every group keeps its trace's input order
// in an exact-size window, whether its spans sat together in the input
// or were scattered, and grouping costs the same number of heap objects
// at 20 traces as at 200.
func TestGroupTracesExactGroups(t *testing.T) {
	for name, spans := range map[string][]telemetry.Span{
		"interleaved": append(interleavedTraces(50), telemetry.Span{Trace: 7, ID: 999}), // a straggler at the end
		"drained":     drainedTraces(50),
	} {
		groups := GroupTraces(spans)
		if len(groups) != 50 {
			t.Fatalf("%s: %d groups, want 50", name, len(groups))
		}
		total := 0
		for id, g := range groups {
			total += len(g)
			if cap(g) != len(g) {
				t.Errorf("%s: trace %d: cap %d, len %d", name, id, cap(g), len(g))
			}
			var want []telemetry.SpanID
			for _, s := range spans {
				if s.Trace == id {
					want = append(want, s.ID)
				}
			}
			for i, s := range g {
				if s.Trace != id || s.ID != want[i] {
					t.Fatalf("%s: trace %d: span %d is %d of trace %d, want %d", name, id, i, s.ID, s.Trace, want[i])
				}
			}
		}
		if total != len(spans) {
			t.Errorf("%s: groups hold %d spans, want %d", name, total, len(spans))
		}
	}

	for name, traces := range map[string]func(int) []telemetry.Span{"interleaved": interleavedTraces, "drained": drainedTraces} {
		few, many := traces(20), traces(200)
		a := testing.AllocsPerRun(20, func() { GroupTraces(few) })
		b := testing.AllocsPerRun(20, func() { GroupTraces(many) })
		if b > a {
			t.Errorf("%s: GroupTraces allocates %.0f objects at 20 traces, %.0f at 200", name, a, b)
		}
	}
}

func TestReadSpansRejectsMalformedLine(t *testing.T) {
	in := `{"trace":"abc","span":"1","parent":"0","service":"s","cluster":"c","class":"k","start_ns":0,"end_ns":1}
not json
`
	if _, err := ReadSpans(strings.NewReader(in)); err == nil {
		t.Fatal("malformed line must fail the read")
	}
	// Bad hex IDs are rejected too.
	in = `{"trace":"zz","span":"1","parent":"0","service":"s","cluster":"c","class":"k"}` + "\n"
	if _, err := ReadSpans(strings.NewReader(in)); err == nil {
		t.Fatal("non-hex trace id must fail the read")
	}
}
