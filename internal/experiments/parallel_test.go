package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/simrun"
)

// TestForEachConcurrentIndexedSlots forces multiple workers (the public
// runConcurrently path degenerates to a serial loop under GOMAXPROCS=1)
// and checks every task runs exactly once into its own slot.
func TestForEachConcurrentIndexedSlots(t *testing.T) {
	const n = 100
	got := make([]int, n)
	if err := forEachConcurrent(n, 8, func(i int) error {
		got[i]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, c := range got {
		if c != 1 {
			t.Fatalf("task %d ran %d times", i, c)
		}
	}
}

// TestForEachConcurrentLowestIndexError checks the error returned is the
// lowest-index one, independent of completion order.
func TestForEachConcurrentLowestIndexError(t *testing.T) {
	errA := errors.New("a")
	err := forEachConcurrent(10, 4, func(i int) error {
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

// TestForEachConcurrentSerialFallback checks the one-worker path keeps
// fail-fast semantics: tasks after the first error never run.
func TestForEachConcurrentSerialFallback(t *testing.T) {
	var ran []int
	err := forEachConcurrent(5, 1, func(i int) error {
		ran = append(ran, i)
		if i == 2 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil || len(ran) != 3 {
		t.Fatalf("err=%v ran=%v, want error after tasks 0..2", err, ran)
	}
}

// TestRunLegsOrderIndependent is the leg runner's contract: a table's
// per-leg results are bit-identical on one worker, on several, and with
// the legs reversed, because no leg can reach another's controller,
// demand map or scenario. chaos primes both legs from one demand map
// and ticks; burst mixes all three leg constructors.
func TestRunLegsOrderIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each table three times")
	}
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	run := func(workers int, legs []leg) []*simrun.Result {
		t.Helper()
		runtime.GOMAXPROCS(workers)
		res, err := runLegs(legs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	opt := Options{Seed: 42}.defaults()
	for name, table := range map[string]func(Options) []leg{"chaos": chaosLegs, "burst": burstLegs} {
		legs := table(opt)
		serial := run(1, legs)
		parallel := run(max(procs, 2), legs)
		backwards := slices.Clone(legs)
		slices.Reverse(backwards)
		reversed := run(max(procs, 2), backwards)
		slices.Reverse(reversed)
		for i, l := range legs {
			if !reflect.DeepEqual(serial[i], parallel[i]) {
				t.Errorf("%s/%s: result on several workers differs from one worker", name, l.name)
			}
			if !reflect.DeepEqual(serial[i], reversed[i]) {
				t.Errorf("%s/%s: result depends on leg order", name, l.name)
			}
		}
	}
}
