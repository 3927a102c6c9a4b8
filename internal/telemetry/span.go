package telemetry

import (
	"fmt"
	"sort"
	"time"
)

// TraceID identifies one end-to-end request across all services.
type TraceID uint64

// SpanID identifies one service invocation within a trace.
type SpanID uint64

// Span records one endpoint call: which service executed it, in which
// cluster, for which traffic class, and when. SLATE-proxies emit one
// span per proxied request; the global controller reconstructs call
// trees from them to learn per-class call graphs and multi-hop latency
// attribution.
type Span struct {
	Trace   TraceID
	ID      SpanID
	Parent  SpanID // zero for the root span
	Service string
	Cluster string
	Class   string
	Method  string
	Path    string
	Start   time.Duration // since an arbitrary epoch shared by the trace
	End     time.Duration
	// ReqBytes/RespBytes size the messages, for egress accounting.
	ReqBytes, RespBytes int64
	// Remote marks a call that crossed a cluster boundary.
	Remote bool
}

// Latency returns the span's duration.
func (s *Span) Latency() time.Duration { return s.End - s.Start }

// TraceTree is a reconstructed call tree for one trace.
type TraceTree struct {
	Root     *TraceNode
	Orphans  []*TraceNode // spans whose parent was missing
	NumSpans int
}

// TraceNode is one node of a reconstructed call tree.
type TraceNode struct {
	Span     Span
	Children []*TraceNode
}

// Walk visits the node and descendants pre-order.
func (n *TraceNode) Walk(fn func(*TraceNode)) {
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// BuildTree reconstructs the call tree of a single trace from its spans.
// Spans may arrive in any order. Children are ordered by start time.
// The root is the unique span with Parent == 0; if none or several
// exist, an error is returned (the trace is corrupt or partial).
func BuildTree(spans []Span) (*TraceTree, error) {
	if len(spans) == 0 {
		return nil, fmt.Errorf("telemetry: no spans")
	}
	trace := spans[0].Trace
	nodes := make(map[SpanID]*TraceNode, len(spans))
	for _, s := range spans {
		if s.Trace != trace {
			return nil, fmt.Errorf("telemetry: mixed traces %d and %d", trace, s.Trace)
		}
		if _, dup := nodes[s.ID]; dup {
			return nil, fmt.Errorf("telemetry: duplicate span %d in trace %d", s.ID, trace)
		}
		nodes[s.ID] = &TraceNode{Span: s}
	}
	t := &TraceTree{NumSpans: len(spans)}
	for _, n := range nodes {
		if n.Span.Parent == 0 {
			if t.Root != nil {
				return nil, fmt.Errorf("telemetry: trace %d has multiple roots", trace)
			}
			t.Root = n
			continue
		}
		parent, ok := nodes[n.Span.Parent]
		if !ok {
			t.Orphans = append(t.Orphans, n)
			continue
		}
		parent.Children = append(parent.Children, n)
	}
	if t.Root == nil {
		return nil, fmt.Errorf("telemetry: trace %d has no root span", trace)
	}
	var sortChildren func(*TraceNode)
	sortChildren = func(n *TraceNode) {
		sort.SliceStable(n.Children, func(i, j int) bool {
			if n.Children[i].Span.Start != n.Children[j].Span.Start {
				return n.Children[i].Span.Start < n.Children[j].Span.Start
			}
			return n.Children[i].Span.ID < n.Children[j].Span.ID
		})
		for _, c := range n.Children {
			sortChildren(c)
		}
	}
	sortChildren(t.Root)
	sort.SliceStable(t.Orphans, func(i, j int) bool { return t.Orphans[i].Span.ID < t.Orphans[j].Span.ID })
	return t, nil
}
