package obs

import (
	"encoding/json"
	"io"
	"slices"
	"strconv"
	"sync"

	"github.com/servicelayernetworking/slate/internal/telemetry"
)

// spanRecord is the JSONL wire form of one telemetry.Span: one JSON
// object per line. Trace/span IDs are lowercase hex strings, matching
// the X-Slate-Trace-Id / X-Slate-Span-Id wire headers, so a dumped
// trace can be grepped against proxy logs; parent "0" marks a root
// span. Times are integer nanoseconds since the trace's epoch.
type spanRecord struct {
	Trace     string `json:"trace"`
	ID        string `json:"span"`
	Parent    string `json:"parent"`
	Service   string `json:"service"`
	Cluster   string `json:"cluster"`
	Class     string `json:"class"`
	Method    string `json:"method,omitempty"`
	Path      string `json:"path,omitempty"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
	ReqBytes  int64  `json:"req_bytes,omitempty"`
	RespBytes int64  `json:"resp_bytes,omitempty"`
	Remote    bool   `json:"remote,omitempty"`
}

func toRecord(s telemetry.Span) spanRecord {
	return spanRecord{
		Trace:     strconv.FormatUint(uint64(s.Trace), 16),
		ID:        strconv.FormatUint(uint64(s.ID), 16),
		Parent:    strconv.FormatUint(uint64(s.Parent), 16),
		Service:   s.Service,
		Cluster:   s.Cluster,
		Class:     s.Class,
		Method:    s.Method,
		Path:      s.Path,
		StartNS:   int64(s.Start),
		EndNS:     int64(s.End),
		ReqBytes:  s.ReqBytes,
		RespBytes: s.RespBytes,
		Remote:    s.Remote,
	}
}

// SpanWriter streams telemetry spans to an io.Writer as JSONL, one span
// per line — the export format slate-bench and slate-emul dump so
// traces can be reconstructed offline (telemetry.BuildTree on the spans
// of one trace ID). Safe for concurrent use.
type SpanWriter struct {
	mu  sync.Mutex
	w   io.Writer
	enc *json.Encoder
	n   int
}

// NewSpanWriter returns a SpanWriter emitting to w. The caller owns w's
// lifecycle (flush/close).
func NewSpanWriter(w io.Writer) *SpanWriter {
	return &SpanWriter{w: w, enc: json.NewEncoder(w)}
}

// WriteSpan appends one span as a JSON line.
func (sw *SpanWriter) WriteSpan(s telemetry.Span) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if err := sw.enc.Encode(toRecord(s)); err != nil {
		return err
	}
	sw.n++
	return nil
}

// WriteSpans appends a batch of spans, stopping at the first error.
func (sw *SpanWriter) WriteSpans(spans []telemetry.Span) error {
	for _, s := range spans {
		if err := sw.WriteSpan(s); err != nil {
			return err
		}
	}
	return nil
}

// Count returns how many spans have been written.
func (sw *SpanWriter) Count() int {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.n
}

// GroupTraces buckets spans by trace ID, preserving input order within
// each trace — the shape telemetry.BuildTree wants. Every group is
// exact-size (len == cap), so appending to one never writes into another
// or into spans. A trace whose spans sit together in the input (every
// trace of one emul.Mesh.DrainSpans, which sorts by trace) is a window
// of spans itself; the others are windows of one backing array, filled
// in input order. Grouping thus copies only the scattered traces' spans,
// never grows a slice per trace, and makes its map at the final size: a
// trace's size is its run in a sorted copy of the ids.
func GroupTraces(spans []telemetry.Span) map[telemetry.TraceID][]telemetry.Span {
	ids := make([]telemetry.TraceID, len(spans))
	for i := range spans {
		ids[i] = spans[i].Trace
	}
	slices.Sort(ids)
	size := func(t telemetry.TraceID) int {
		lo, _ := slices.BinarySearch(ids, t)
		n := 1
		for lo+n < len(ids) && ids[lo+n] == t {
			n++
		}
		return n
	}
	traces := 0
	for i := range ids {
		if i == 0 || ids[i] != ids[i-1] {
			traces++
		}
	}

	out := make(map[telemetry.TraceID][]telemetry.Span, traces)
	scattered := 0
	for i := 0; i < len(spans); {
		t := spans[i].Trace
		j := i + 1
		for j < len(spans) && spans[j].Trace == t {
			j++
		}
		if n := size(t); n == j-i {
			out[t] = spans[i:j:j]
		} else if _, seen := out[t]; !seen {
			out[t] = nil // filled below
			scattered += n
		}
		i = j
	}
	if scattered == 0 {
		return out
	}
	backing := make([]telemetry.Span, scattered)
	next := 0
	for _, s := range spans {
		g := out[s.Trace]
		switch {
		case g == nil:
			n := size(s.Trace)
			g = backing[next : next : next+n]
			next += n
		case len(g) == cap(g):
			continue // complete: an adjacent trace, a window of spans
		}
		out[s.Trace] = append(g, s)
	}
	return out
}
