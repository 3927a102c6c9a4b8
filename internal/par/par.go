// Package par is SLATE's one bounded fan-out: the planner's dirty
// shards, the global controller's rule pushes and an experiment's
// simulated legs all run through Each.
package par

import "sync"

// Each calls do(worker, i) for every i in [0, n), handing the indices
// out in increasing order to at most min(workers, n) goroutines. The
// calling goroutine is worker 0, so one worker or one index starts no
// goroutine; worker is below min(workers, n), so do may keep per-worker
// state in a slice of that length. Once a call has failed no new index
// starts, and Each returns the error of the lowest failed index (nil if
// none): every lower index was handed out before it, so that error does
// not depend on scheduling.
func Each(n, workers int, do func(worker, i int) error) error {
	workers = max(1, min(workers, n))
	f := &fanout{do: do, errAt: n} // one object: a dirty tick's fan-out allocates little
	f.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer f.wg.Done()
			f.run(w)
		}()
	}
	f.run(0)
	f.wg.Wait()
	return f.err
}

// fanout is one Each call's shared state.
type fanout struct {
	do func(worker, i int) error
	wg sync.WaitGroup

	mu    sync.Mutex // guards next, errAt and err
	next  int        // the next index to hand out
	errAt int        // the lowest failed index, n while none has failed
	err   error      // that index's error
}

// run serves indices until none is left below n and the lowest failure.
func (f *fanout) run(worker int) {
	for {
		f.mu.Lock()
		i := f.next
		if i >= f.errAt {
			f.mu.Unlock()
			return
		}
		f.next++
		f.mu.Unlock()
		if err := f.do(worker, i); err != nil {
			f.mu.Lock()
			if i < f.errAt {
				f.errAt, f.err = i, err
			}
			f.mu.Unlock()
		}
	}
}
