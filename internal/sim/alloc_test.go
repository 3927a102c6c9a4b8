package sim

import (
	"testing"
	"time"
)

// TestSchedulingAllocationFree pins the kernel's steady-state
// schedule-fire cycle at zero heap allocations per event: slots come
// from the arena's free list once the first chunk exists, and firing
// recycles them immediately.
func TestSchedulingAllocationFree(t *testing.T) {
	k := NewKernel()
	// Warm the arena and the heap's backing array.
	for i := 0; i < 8; i++ {
		k.After(time.Microsecond, func(*Kernel) {})
	}
	k.Run()

	if n := testing.AllocsPerRun(1000, func() {
		k.After(time.Microsecond, func(*Kernel) {})
		k.Run()
	}); n != 0 { //slate:nolint floatcmp -- AllocsPerRun returns an integer-valued count
		t.Fatalf("schedule+fire allocates %v per event, want 0", n)
	}
}

// TestPostAllocationFree pins the typed-event cycle — Post, PostReserved,
// dispatch to the handler — at zero allocations: an Event is stored in
// the slot by value, so not even a closure is made.
func TestPostAllocationFree(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.SetHandler(func(*Kernel, Event) { fired++ })
	for i := 0; i < 8; i++ {
		k.Post(k.Now(), Event{})
	}
	k.Run()

	if n := testing.AllocsPerRun(1000, func() {
		k.Post(k.Now()+1, Event{Op: 1, A: 2})
		k.PostReserved(k.Now()+1, k.Reserve(1), Event{Op: 3, X: 4})
		k.Run()
	}); n != 0 { //slate:nolint floatcmp -- AllocsPerRun returns an integer-valued count
		t.Fatalf("post+fire allocates %v per run, want 0", n)
	}
	if fired != 8+2*1001 {
		t.Fatalf("handler fired %d times, want %d", fired, 8+2*1001)
	}
}

// TestCancelAllocationFree pins schedule+cancel (the common timeout
// pattern: nearly every timeout is cancelled by its request finishing
// first) at zero allocations, including draining the lazily-deleted
// slots.
func TestCancelAllocationFree(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 8; i++ {
		k.After(time.Microsecond, func(*Kernel) {})
	}
	k.Run()

	if n := testing.AllocsPerRun(1000, func() {
		h := k.After(time.Second, func(*Kernel) {})
		if !h.Cancel() {
			t.Fatal("cancel of pending event must succeed")
		}
		k.Run() // drains the dead slot back to the free list
	}); n != 0 { //slate:nolint floatcmp -- AllocsPerRun returns an integer-valued count
		t.Fatalf("schedule+cancel allocates %v per event, want 0", n)
	}
}

// TestPendingConstantTime checks Pending's bookkeeping across schedule,
// cancel, and fire — it must count live events only, without scanning
// the heap (the counter is maintained O(1) at each transition).
func TestPendingConstantTime(t *testing.T) {
	k := NewKernel()
	if k.Pending() != 0 {
		t.Fatalf("fresh kernel Pending = %d", k.Pending())
	}
	var handles []Handle
	for i := 0; i < 10; i++ {
		handles = append(handles, k.After(time.Duration(i+1)*time.Millisecond, func(*Kernel) {}))
	}
	if k.Pending() != 10 {
		t.Fatalf("Pending = %d after 10 schedules, want 10", k.Pending())
	}
	// Cancel three; the slots stay heap-resident (lazy deletion) but must
	// leave the pending count immediately.
	for i := 0; i < 3; i++ {
		if !handles[i].Cancel() {
			t.Fatalf("cancel %d failed", i)
		}
	}
	if k.Pending() != 7 {
		t.Fatalf("Pending = %d after 3 cancels, want 7", k.Pending())
	}
	// Double-cancel and stale-handle cancel are no-ops.
	if handles[0].Cancel() {
		t.Fatal("double cancel reported success")
	}
	if k.Pending() != 7 {
		t.Fatalf("Pending = %d after double cancel, want 7", k.Pending())
	}
	// Fire three events; each pop decrements.
	for i := 0; i < 3; i++ {
		if !k.Step() {
			t.Fatal("step found no event")
		}
	}
	if k.Pending() != 4 {
		t.Fatalf("Pending = %d after 3 fires, want 4", k.Pending())
	}
	k.Run()
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", k.Pending())
	}
	// A handle from a fired event is stale: its slot was recycled.
	if handles[5].Cancel() {
		t.Fatal("cancel of fired event reported success")
	}
}

// TestHandleGenerationABA checks that a Handle to a fired event cannot
// cancel the slot's next occupant after the arena recycles it.
func TestHandleGenerationABA(t *testing.T) {
	k := NewKernel()
	stale := k.After(time.Microsecond, func(*Kernel) {})
	k.Run() // fires; slot recycled

	fired := false
	fresh := k.After(time.Microsecond, func(*Kernel) { fired = true })
	if stale.Cancel() {
		t.Fatal("stale handle cancelled a recycled slot")
	}
	k.Run()
	if !fired {
		t.Fatal("second event did not fire — stale handle interfered")
	}
	if fresh.Cancel() {
		t.Fatal("handle to already-fired event cancelled something")
	}
}
