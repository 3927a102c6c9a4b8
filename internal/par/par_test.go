package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestEachIndexedSlots runs every index exactly once into its own slot,
// on worker numbers below min(workers, n).
func TestEachIndexedSlots(t *testing.T) {
	for _, c := range []struct{ n, workers int }{{100, 8}, {3, 8}, {5, 1}, {1, 4}, {0, 4}, {7, 0}} {
		got := make([]int, c.n)
		var bad atomic.Int64
		if err := Each(c.n, c.workers, func(w, i int) error {
			if w < 0 || w >= max(1, min(c.workers, c.n)) {
				bad.Add(1)
			}
			got[i]++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, k := range got {
			if k != 1 {
				t.Fatalf("n=%d workers=%d: index %d ran %d times", c.n, c.workers, i, k)
			}
		}
		if bad.Load() != 0 {
			t.Fatalf("n=%d workers=%d: %d calls got a worker number out of range", c.n, c.workers, bad.Load())
		}
	}
}

// TestEachLowestIndexError returns the lowest failed index's error,
// independent of completion order.
func TestEachLowestIndexError(t *testing.T) {
	errA := errors.New("a")
	err := Each(10, 4, func(_, i int) error {
		switch i {
		case 3:
			time.Sleep(5 * time.Millisecond)
			return errA
		case 7:
			return fmt.Errorf("b")
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Fatalf("got %v, want the index-3 error", err)
	}
}

// TestEachStopsAfterFailure: no index starts after a call has failed.
// On one worker exactly the indices up to the failure run; on several,
// the ones that run are still a prefix, and far short of all of them.
func TestEachStopsAfterFailure(t *testing.T) {
	const n = 1000
	for _, workers := range []int{1, 4} {
		ran := make([]atomic.Bool, n)
		err := Each(n, workers, func(_, i int) error {
			ran[i].Store(true)
			if i == 2 {
				return errors.New("stop")
			}
			if workers > 1 {
				time.Sleep(time.Millisecond) // the failure lands while the others run
			}
			return nil
		})
		if err == nil {
			t.Fatalf("%d workers: no error", workers)
		}
		k := 0
		for k < n && ran[k].Load() {
			k++
		}
		for i := k; i < n; i++ {
			if ran[i].Load() {
				t.Fatalf("%d workers: index %d ran but %d did not", workers, i, k)
			}
		}
		if workers == 1 && k != 3 || k >= n/2 {
			t.Fatalf("%d workers: indices 0..%d ran, want 0..2 on one worker and few on several", workers, k-1)
		}
	}
}
