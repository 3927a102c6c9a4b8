package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// doFunc performs operation op on behalf of one worker and reports
// whether it succeeded.
type doFunc func(worker, op int) error

// loadResult is one load phase: successful operations' latencies and
// the failures beside them.
type loadResult struct {
	wall      time.Duration
	latencies []time.Duration
	ops       []int // ops[i] is the operation latencies[i] belongs to
	failed    int
	firstErr  error
	// maxLate is how far behind its schedule the open-loop generator
	// ever started a send (always 0 for a closed loop).
	maxLate time.Duration
}

func (r *loadResult) sent() int { return len(r.latencies) + r.failed }

// closedLoop runs `clients` callers for d, or until maxOps operations
// were started if maxOps > 0; each sends its next operation only after
// the previous one completed, so a slow system receives less load.
// Operation ids start at firstOp.
func closedLoop(clients int, d time.Duration, maxOps, firstOp int, do doFunc) *loadResult {
	var next atomic.Int64
	next.Store(int64(firstOp))
	per := make([]loadResult, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := &per[w]
			for time.Now().Before(deadline) {
				op := int(next.Add(1) - 1)
				if maxOps > 0 && op-firstOp >= maxOps {
					return
				}
				t0 := time.Now()
				if err := do(w, op); err != nil {
					r.failed++
					if r.firstErr == nil {
						r.firstErr = err
					}
					continue
				}
				r.latencies = append(r.latencies, time.Since(t0))
				r.ops = append(r.ops, op)
			}
		}(w)
	}
	wg.Wait()
	return mergeLoad(per, time.Since(start))
}

// openLoop sends operation k at start + k/rate whatever happened to the
// earlier ones, over `conns` workers (one connection each). Latency is
// timed from the due time, so a stall is charged to every request it
// delays; a worker that finds its operation already overdue sends at
// once and the lateness is recorded.
func openLoop(conns int, rate float64, d time.Duration, firstOp int, do doFunc) *loadResult {
	total := int(rate * d.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	per := make([]loadResult, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := &per[w]
			for {
				k := int(next.Add(1) - 1)
				if k >= total {
					return
				}
				due := start.Add(time.Duration(k) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				if late := time.Since(due); late > r.maxLate {
					r.maxLate = late
				}
				if err := do(w, firstOp+k); err != nil {
					r.failed++
					if r.firstErr == nil {
						r.firstErr = err
					}
					continue
				}
				r.latencies = append(r.latencies, time.Since(due))
				r.ops = append(r.ops, firstOp+k)
			}
		}(w)
	}
	wg.Wait()
	return mergeLoad(per, time.Since(start))
}

func mergeLoad(per []loadResult, wall time.Duration) *loadResult {
	out := &loadResult{wall: wall}
	for i := range per {
		out.latencies = append(out.latencies, per[i].latencies...)
		out.ops = append(out.ops, per[i].ops...)
		out.failed += per[i].failed
		if out.firstErr == nil {
			out.firstErr = per[i].firstErr
		}
		out.maxLate = max(out.maxLate, per[i].maxLate)
	}
	return out
}

// add folds a later stretch of the same load into r.
func (r *loadResult) add(o *loadResult) {
	r.wall += o.wall
	r.latencies = append(r.latencies, o.latencies...)
	r.ops = append(r.ops, o.ops...)
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.maxLate = max(r.maxLate, o.maxLate)
}

// inOpOrder returns the latencies in ms ordered by operation id, i.e.
// by scheduled send time for an open loop.
func (r *loadResult) inOpOrder() []opSample {
	idx := make([]int, len(r.ops))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return r.ops[idx[a]] < r.ops[idx[b]] })
	out := make([]opSample, len(idx))
	for i, j := range idx {
		out[i] = opSample{ms: ms(r.latencies[j])}
	}
	return out
}
