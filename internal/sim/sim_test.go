package sim

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestKernelOrdersEventsByTime(t *testing.T) {
	k := NewKernel()
	var got []int
	k.At(Time(30*time.Millisecond), func(*Kernel) { got = append(got, 3) })
	k.At(Time(10*time.Millisecond), func(*Kernel) { got = append(got, 1) })
	k.At(Time(20*time.Millisecond), func(*Kernel) { got = append(got, 2) })
	k.Run()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if k.Now() != Time(30*time.Millisecond) {
		t.Errorf("Now() = %v, want 30ms", k.Now())
	}
}

func TestKernelFIFOAtSameTimestamp(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		k.At(Time(5*time.Millisecond), func(*Kernel) { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("events at same timestamp not FIFO: pos %d got %d", i, v)
		}
	}
}

func TestKernelAfterChains(t *testing.T) {
	k := NewKernel()
	var times []Time
	var step func(*Kernel)
	step = func(kk *Kernel) {
		times = append(times, kk.Now())
		if len(times) < 5 {
			kk.After(10*time.Millisecond, step)
		}
	}
	k.After(10*time.Millisecond, step)
	k.Run()
	if len(times) != 5 {
		t.Fatalf("got %d firings, want 5", len(times))
	}
	for i, ts := range times {
		want := Time(time.Duration(i+1) * 10 * time.Millisecond)
		if ts != want {
			t.Errorf("firing %d at %v, want %v", i, ts, want)
		}
	}
}

func TestKernelSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	k.At(Time(10*time.Millisecond), func(kk *Kernel) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		kk.At(Time(5*time.Millisecond), func(*Kernel) {})
	})
	k.Run()
}

func TestKernelNegativeAfterClampsToNow(t *testing.T) {
	k := NewKernel()
	fired := false
	k.After(-time.Second, func(*Kernel) { fired = true })
	k.Run()
	if !fired {
		t.Error("event with negative delay never fired")
	}
	if k.Now() != 0 {
		t.Errorf("Now() = %v, want 0", k.Now())
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for i := 1; i <= 5; i++ {
		d := Time(time.Duration(i) * 10 * time.Millisecond)
		k.At(d, func(kk *Kernel) { fired = append(fired, kk.Now()) })
	}
	k.run(Time(25*time.Millisecond), true)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if k.Now() != Time(25*time.Millisecond) {
		t.Errorf("Now() = %v, want 25ms (clock advances to deadline)", k.Now())
	}
	k.run(Time(100*time.Millisecond), true)
	if len(fired) != 5 {
		t.Errorf("fired %d events total, want 5", len(fired))
	}
}

func TestKernelStep(t *testing.T) {
	k := NewKernel()
	n := 0
	k.At(0, func(*Kernel) { n++ })
	k.At(0, func(*Kernel) { n++ })
	if !k.next(MaxTime, true) {
		t.Fatal("Step returned false with pending events")
	}
	if n != 1 {
		t.Fatalf("n = %d after one Step, want 1", n)
	}
	if !k.next(MaxTime, true) {
		t.Fatal("Step returned false with one pending event")
	}
	if k.next(MaxTime, true) {
		t.Fatal("Step returned true with empty schedule")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() { //slate:nolint floatcmp -- bit-exact reproducibility is the property under test
			t.Fatal("same-seed streams diverged")
		}
	}
}

func TestRNGDeriveIndependence(t *testing.T) {
	// Child streams with different ids must differ; a fixed id must be
	// reproducible from an equivalent parent.
	p1, p2 := NewRNG(7), NewRNG(7)
	c1, c2 := p1.Derive(1), p2.Derive(1)
	for i := 0; i < 100; i++ {
		if c1.Float64() != c2.Float64() { //slate:nolint floatcmp -- bit-exact reproducibility is the property under test
			t.Fatal("derived streams with same lineage diverged")
		}
	}
	d1 := NewRNG(7).Derive(1)
	d2 := NewRNG(7).Derive(2)
	same := true
	for i := 0; i < 16; i++ {
		if d1.Float64() != d2.Float64() { //slate:nolint floatcmp -- bit-exact divergence is the property under test
			same = false
			break
		}
	}
	if same {
		t.Fatal("streams derived with different ids are identical")
	}
}

func TestRNGDeriveNamedReproducible(t *testing.T) {
	a := NewRNG(3).DeriveNamed("svc-a/cluster-west")
	b := NewRNG(3).DeriveNamed("svc-a/cluster-west")
	for i := 0; i < 64; i++ {
		if a.Intn(1000) != b.Intn(1000) {
			t.Fatal("named derivation is not reproducible")
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	g := NewRNG(11)
	const mean = 25.0
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += g.Exp(mean)
	}
	got := sum / n
	if math.Abs(got-mean) > mean*0.02 {
		t.Errorf("exponential sample mean = %.3f, want ~%.1f", got, mean)
	}
}

func TestRNGExpNonPositiveMean(t *testing.T) {
	g := NewRNG(1)
	if !almostEqual(g.Exp(0), 0) || !almostEqual(g.Exp(-5), 0) {
		t.Error("Exp with non-positive mean should return 0")
	}
}

func TestKernelManyEventsProperty(t *testing.T) {
	// Property: for any set of delays, events fire in nondecreasing time
	// order and the final clock equals the max delay.
	f := func(delays []uint16) bool {
		k := NewKernel()
		var fired []Time
		var maxT Time
		for _, d := range delays {
			at := Time(time.Duration(d) * time.Microsecond)
			if at > maxT {
				maxT = at
			}
			k.At(at, func(kk *Kernel) { fired = append(fired, kk.Now()) })
		}
		k.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(delays) == 0 || k.Now() == maxT
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPostSharesAtsOrder: typed events and closures scheduled for the
// same instant fire in the order they were scheduled, whichever kind.
func TestPostSharesAtsOrder(t *testing.T) {
	k := NewKernel()
	var got []int32
	k.SetHandler(func(_ *Kernel, ev Event) { got = append(got, ev.A) })
	at := Time(time.Millisecond)
	k.Post(at, Event{A: 0})
	k.At(at, func(*Kernel) { got = append(got, 1) })
	k.Post(at, Event{A: 2})
	k.Post(at-1, Event{A: -1})
	k.Run()
	if want := []int32{-1, 0, 1, 2}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestReservedFeedMatchesScheduledUpFront: streams of events fed one at
// a time under reserved sequence numbers fire exactly where scheduling
// every one of them up front puts them — ties between streams and with
// events scheduled during the run included. The same holds for lanes,
// streams that grow during the run (simrun's network links).
func TestReservedFeedMatchesScheduledUpFront(t *testing.T) {
	streams := [][]Time{{1, 2, 2, 5}, {2, 2, 3}, {}, {2, 5, 5}}
	type fired struct {
		at        Time
		stream, i int32
	}
	run := func(feed bool) []fired {
		k := NewKernel()
		var got []fired
		first := make([]uint64, len(streams))
		k.SetHandler(func(k *Kernel, ev Event) {
			got = append(got, fired{k.Now(), ev.A, ev.B})
			if ev.A < 0 {
				return
			}
			// Work scheduled during the run lands behind every reserved
			// arrival of the same instant.
			k.Post(k.Now()+1, Event{A: -1 - ev.A, B: ev.B})
			if s := streams[ev.A]; feed && int(ev.B)+1 < len(s) {
				k.PostReserved(s[ev.B+1], first[ev.A]+uint64(ev.B)+1, Event{A: ev.A, B: ev.B + 1})
			}
		})
		for si, s := range streams {
			if !feed {
				for i, at := range s {
					k.Post(at, Event{A: int32(si), B: int32(i)})
				}
			} else if first[si] = k.Reserve(len(s)); len(s) > 0 {
				k.PostReserved(s[0], first[si], Event{A: int32(si)})
			}
		}
		k.Run()
		return got
	}
	want, got := run(false), run(true)
	if len(want) != 20 || !slices.Equal(got, want) {
		t.Fatalf("fed one at a time:\n%v\nscheduled up front:\n%v", got, want)
	}

	// Lanes: events sent during the run on fixed-delay lanes arrive in the
	// order they were sent, so a lane can reserve each event's number when
	// it is sent, queue it, and keep only its head in the schedule — and
	// still fire everything where posting each event directly would. The
	// delays are small integers, so lane events tie with each other and
	// with the random-delay posts in between.
	laneDelay := []Time{0, 2, 3, 3}
	const laneOp, budget = 1, 3000
	type laneEvent struct {
		at  Time
		seq uint64
		id  int32
	}
	runLanes := func(lanes bool) []fired {
		k, rng := NewKernel(), NewRNG(9)
		queue := make([][]laneEvent, len(laneDelay))
		var got []fired
		next := int32(0)
		deliver := func(k *Kernel, id int32) {
			got = append(got, fired{k.Now(), id, 0})
			for n := 1 + rng.Intn(2); n > 0 && next < budget; n-- {
				id := next
				next++
				if rng.Intn(2) == 0 {
					k.Post(k.Now()+Time(rng.Intn(4)), Event{A: id})
					continue
				}
				l := rng.Intn(len(laneDelay))
				at := k.Now() + laneDelay[l]
				if !lanes {
					k.Post(at, Event{A: id})
					continue
				}
				seq := k.Reserve(1)
				if queue[l] = append(queue[l], laneEvent{at, seq, id}); len(queue[l]) == 1 {
					k.PostReserved(at, seq, Event{Op: laneOp, A: int32(l)})
				}
			}
		}
		k.SetHandler(func(k *Kernel, ev Event) {
			if ev.Op != laneOp {
				deliver(k, ev.A)
				return
			}
			q := queue[ev.A]
			head := q[0]
			if queue[ev.A] = q[1:]; len(q) > 1 {
				k.PostReserved(q[1].at, q[1].seq, ev)
			}
			deliver(k, head.id)
		})
		for ; next < 8; next++ {
			k.Post(Time(next/3), Event{A: next})
		}
		k.Run()
		return got
	}
	want, got = runLanes(false), runLanes(true)
	if len(want) < budget || !slices.Equal(got, want) {
		t.Fatalf("lanes fed one at a time (%d events) fire in another order than posting directly (%d events)", len(got), len(want))
	}
}

// TestKernelDrainKeepsLastEventTime: a draining Run leaves the clock at
// its last event, not at MaxTime, so the kernel can go on scheduling.
func TestKernelDrainKeepsLastEventTime(t *testing.T) {
	k := NewKernel()
	k.At(Time(5*time.Millisecond), func(*Kernel) {})
	k.Run()
	if k.Now() != Time(5*time.Millisecond) {
		t.Fatalf("after drain, Now() = %v, want 5ms", k.Now())
	}
	fired := false
	k.After(time.Millisecond, func(*Kernel) { fired = true })
	k.Run()
	if !fired || k.Now() != Time(6*time.Millisecond) {
		t.Errorf("event after drain: fired %v, Now() = %v; want true, 6ms", fired, k.Now())
	}
}

// TestKernelRunUntilNeverMovesClockBack: a run to a limit earlier than
// the clock fires nothing and leaves the clock where it is.
func TestKernelRunUntilNeverMovesClockBack(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.At(Time(20*time.Millisecond), func(*Kernel) { fired++ })
	k.run(Time(10*time.Millisecond), true)
	k.run(Time(5*time.Millisecond), true)
	if fired != 0 || k.Now() != Time(10*time.Millisecond) {
		t.Errorf("fired %d, Now() = %v; want 0, 10ms", fired, k.Now())
	}
}
