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

// TestPendingConstantTime checks Pending's bookkeeping across schedule
// and fire.
func TestPendingConstantTime(t *testing.T) {
	k := NewKernel()
	if k.Pending() != 0 {
		t.Fatalf("fresh kernel Pending = %d", k.Pending())
	}
	for i := 0; i < 10; i++ {
		k.After(time.Duration(i+1)*time.Millisecond, func(*Kernel) {})
	}
	if k.Pending() != 10 {
		t.Fatalf("Pending = %d after 10 schedules, want 10", k.Pending())
	}
	// Fire three events; each pop decrements.
	for i := 0; i < 3; i++ {
		if !k.Step() {
			t.Fatal("step found no event")
		}
	}
	if k.Pending() != 7 {
		t.Fatalf("Pending = %d after 3 fires, want 7", k.Pending())
	}
	k.Run()
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", k.Pending())
	}
}
