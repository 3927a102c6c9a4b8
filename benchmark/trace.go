package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanRec is one traced interval: a call from the harness into a layer.
// Spans of one operation (request, tick, simulation run) share Op.
type spanRec struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and counts in memory until the run ends. A nil
// *tracer is the untraced run: every method is a no-op.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []spanRec
	counts map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]float64{}} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{Name: name, Op: op, ID: len(t.spans) + 1, Parent: parent, Start: now})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records an already-measured interval (spans drained from the
// program carry their own clocks).
func (t *tracer) add(name string, op, parent int, start time.Time, d time.Duration) int {
	if t == nil {
		return 0
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{Name: name, Op: op, ID: len(t.spans) + 1, Parent: parent, Start: s, End: s + d.Nanoseconds()})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

// count accumulates a counter taken at a layer boundary.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of that
// interval its child spans cover (overlapping children are not counted
// twice).
func selfTimes(spans []spanRec) []time.Duration {
	children := map[int][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			cs, ce := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if ce > cs {
				covered += ce - cs
				edge = ce
			}
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// selfByName groups self times by span name.
func (t *tracer) selfByName() map[string][]time.Duration {
	out := map[string][]time.Duration{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, d := range selfTimes(t.spans) {
		out[t.spans[i].Name] = append(out[t.spans[i].Name], d)
	}
	return out
}

// perOp sums the self time of every span of that name within each
// operation and returns one total per operation, in ms.
func (t *tracer) perOpMS(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	byOp := map[int]time.Duration{}
	var ops []int
	for i, d := range selfTimes(t.spans) {
		if t.spans[i].Name != name {
			continue
		}
		op := t.spans[i].Op
		if _, seen := byOp[op]; !seen {
			ops = append(ops, op)
		}
		byOp[op] += d
	}
	sort.Ints(ops)
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = ms(byOp[op])
	}
	return out
}

// write dumps the spans as JSON lines, one span per line, followed by
// one line per counter.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	names := make([]string, 0, len(t.counts))
	for n := range t.counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err != nil {
			break
		}
		err = enc.Encode(map[string]any{"count": n, "value": t.counts[n]})
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
