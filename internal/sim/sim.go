// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel owns a virtual clock and a priority queue of timed events.
// All model code runs inside event callbacks; callbacks schedule further
// events. Time never advances except by popping the next event, so a
// simulation driven by seeded random streams is bit-reproducible.
//
// The kernel is intentionally single-threaded: SLATE's benchmark harness
// sweeps hundreds of scenario configurations, and a virtual-time simulator
// with no synchronization is orders of magnitude faster (and perfectly
// deterministic) compared to a wall-clock emulation.
//
// Events live in a chunked arena recycled through a free list, so the
// steady-state schedule-fire cycle allocates nothing: a simulation's
// event-object footprint is its peak pending count, not its event count.
//
// An event is a closure (At/After: setup, dynamics, tests) or a typed
// record (Post: a model's per-event path), plain data handed to the
// kernel's one Handler when it fires: scheduling it allocates nothing,
// and it crosses shards by value (Shard.Send).
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a virtual timestamp measured as a time.Duration since the start
// of the simulation. Using Duration keeps call sites readable
// (sim.Time(50*time.Millisecond)) and interoperates with the wall-clock
// emulation runtime, which shares scenario definitions with the simulator.
type Time time.Duration

// Duration converts t to a time.Duration since simulation start.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t in seconds.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

func (t Time) String() string { return time.Duration(t).String() }

// MaxTime is the largest representable virtual time.
const MaxTime = Time(math.MaxInt64)

// Event is a typed event record. Op and the operands are the model's to
// interpret: typically A indexes an arena of per-call state and the rest
// carries a call across shards.
type Event struct {
	Op, F      uint8
	A, B, C, D int32
	X, Y       uint64
}

// Handler fires a kernel's typed events.
type Handler func(k *Kernel, ev Event)

// event is a scheduled slot: a closure, or when fn is nil a typed record
// for the kernel's handler. Slots are arena-owned and recycled the
// moment they leave the schedule.
type event struct {
	fn  func(*Kernel)
	rec Event
}

// chunkSize is how many event slots each arena chunk holds. Chunks are
// never freed, so addresses stay stable for the kernel's lifetime.
const chunkSize = 256

// Kernel is the discrete-event simulation engine. The zero value is not
// usable; construct with NewKernel.
type Kernel struct {
	now     Time
	heap    []entry
	free    []*event
	seq     uint64
	stopped bool
	nEvents uint64
	handler Handler
}

// NewKernel returns a kernel with the clock at zero and an empty schedule.
func NewKernel() *Kernel { return &Kernel{} }

// SetHandler installs the receiver of typed events (Post, Shard.Send).
func (k *Kernel) SetHandler(h Handler) { k.handler = h }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// EventsProcessed reports how many events have fired so far.
func (k *Kernel) EventsProcessed() uint64 { return k.nEvents }

// alloc returns a free event slot, minting a fresh chunk when the free
// list is empty.
//
//slate:hot
func (k *Kernel) alloc() *event {
	if n := len(k.free); n > 0 {
		ev := k.free[n-1]
		k.free = k.free[:n-1]
		return ev
	}
	return k.mintChunk()
}

// mintChunk grows the arena by one chunk and returns its first slot.
// This is the deliberate slow path of alloc: it runs only when the
// pending-event high-water mark grows, so its allocations are amortized
// away in steady state (the AllocsPerRun pins measure after warmup).
//
//slate:cold
func (k *Kernel) mintChunk() *event {
	chunk := make([]event, chunkSize)
	for i := chunkSize - 1; i > 0; i-- {
		k.free = append(k.free, &chunk[i])
	}
	return &chunk[0]
}

// recycle releases the callback closure to the GC and returns the slot
// to the free list.
func (k *Kernel) recycle(ev *event) {
	ev.fn = nil
	k.free = append(k.free, ev)
}

// schedule inserts a slot at (at, seq); the caller fills in what fires.
// Scheduling in the past panics: it is always a model bug, and silently
// reordering events would destroy reproducibility.
//
//slate:hot
func (k *Kernel) schedule(at Time, seq uint64) *event {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, k.now))
	}
	ev := k.alloc()
	k.push(entry{at, seq, ev})
	return ev
}

// At schedules fn to run at absolute virtual time at.
//
//slate:hot
func (k *Kernel) At(at Time, fn func(*Kernel)) {
	k.schedule(at, k.seq).fn = fn
	k.seq++
}

// Post schedules the typed event ev for the kernel's handler at absolute
// virtual time at, ordered like At among events at the same time.
//
//slate:hot
func (k *Kernel) Post(at Time, ev Event) {
	k.schedule(at, k.seq).rec = ev
	k.seq++
}

// Reserve sets aside the next n tie-break sequence numbers and returns
// the first. A stream of events known up front can then be fed to the
// schedule one at a time (PostReserved), each inserted when its
// predecessor fires, and still fire exactly where scheduling all of them
// at reservation time would have put them.
func (k *Kernel) Reserve(n int) uint64 {
	first := k.seq
	k.seq += uint64(n)
	return first
}

// PostReserved is Post at a sequence number obtained from Reserve.
//
//slate:hot
func (k *Kernel) PostReserved(at Time, seq uint64, ev Event) {
	k.schedule(at, seq).rec = ev
}

// After schedules fn to run d after the current virtual time.
//
//slate:hot
func (k *Kernel) After(d time.Duration, fn func(*Kernel)) {
	if d < 0 {
		d = 0
	}
	k.At(k.now+Time(d), fn)
}

// Stop makes Run/RunUntil return after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Pending reports the number of events still scheduled.
func (k *Kernel) Pending() int { return len(k.heap) }

// entry is one heap element. It holds the ordering key beside the slot,
// so sifting compares adjacent memory instead of chasing pointers.
type entry struct {
	at  Time
	seq uint64 // tie-breaker: FIFO order among events at the same time
	ev  *event
}

// less orders the heap by timestamp, then FIFO among equal timestamps.
func less(a, b entry) bool { return a.at < b.at || a.at == b.at && a.seq < b.seq }

// push inserts e into the binary heap (sift-up).
func (k *Kernel) push(e entry) {
	k.heap = append(k.heap, e)
	h := k.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// popTop removes and returns the heap's minimum, sifting the last entry
// down from the root. Events are arena-owned, so the vacated tail entry
// needs no clearing for the GC.
func (k *Kernel) popTop() entry {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	k.heap = h
	i := 0
	for {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && less(h[r], h[m]) {
			m = r
		}
		if !less(h[m], last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	if n > 0 {
		h[i] = last
	}
	return top
}

// next fires the earliest event if it is due — before limit, or at it
// when inclusive — and reports whether one fired. The slot is recycled
// first: the callback runs from copies, so the slot is immediately
// reusable by whatever it schedules.
//
//slate:hot
func (k *Kernel) next(limit Time, inclusive bool) bool {
	if len(k.heap) == 0 {
		return false
	}
	if at := k.heap[0].at; at > limit || at == limit && !inclusive {
		return false
	}
	top := k.popTop()
	fn, rec := top.ev.fn, top.ev.rec
	k.now = top.at
	k.nEvents++
	k.recycle(top.ev)
	if fn != nil {
		fn(k)
	} else {
		k.handler(k, rec)
	}
	return true
}

// Run executes events until the schedule is empty or Stop is called.
//
//slate:hot
func (k *Kernel) Run() { k.RunUntil(MaxTime) }

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to deadline (if any events remain beyond it, they stay scheduled).
// It returns early if Stop is called or the schedule drains.
//
//slate:hot
func (k *Kernel) RunUntil(deadline Time) { k.run(deadline, true) }

// RunBefore executes events with timestamps strictly before deadline,
// then advances the clock to deadline. It is the half-open variant of
// RunUntil used by Group windows: a conservative window [T, T+L) may
// not execute events at exactly T+L, because a cross-shard message with
// that timestamp may still be in flight.
//
//slate:hot
func (k *Kernel) RunBefore(deadline Time) { k.run(deadline, false) }

// run fires due events, then moves the clock to the limit — except to
// MaxTime, the limit of a draining run, which is no instant to be at.
//
//slate:hot
func (k *Kernel) run(limit Time, inclusive bool) {
	k.stopped = false
	for !k.stopped && k.next(limit, inclusive) {
	}
	if !k.stopped && limit != MaxTime && k.now < limit {
		k.now = limit
	}
}

// peek reports the timestamp of the earliest scheduled event.
func (k *Kernel) peek() (Time, bool) {
	if len(k.heap) == 0 {
		return 0, false
	}
	return k.heap[0].at, true
}

// Step executes exactly one pending event and reports whether an event
// fired.
//
//slate:hot
func (k *Kernel) Step() bool { return k.next(MaxTime, true) }
