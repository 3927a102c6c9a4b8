// Package fixture exercises the lockguard analyzer.
package fixture

import (
	"net/http"
	"sync"
	"time"
)

type state struct {
	mu     sync.Mutex
	rw     sync.RWMutex
	client *http.Client
	n      int
}

func (s *state) sleepUnderLock() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want `s\.mu held across time\.Sleep`
	s.mu.Unlock()
}

func (s *state) rpcUnderDeferredLock() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	resp, err := s.client.Get("http://example.invalid/") // want `s\.mu held across \(\*http\.Client\)\.Get`
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

func (s *state) chanOpsUnderRLock(ch chan int) int {
	s.rw.RLock()
	v := <-ch // want `s\.rw held across channel receive`
	ch <- v   // want `s\.rw held across channel send`
	s.rw.RUnlock()
	return v
}

func (s *state) selectUnderLock(ch chan int, stop chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want `s\.mu held across select without default`
	case <-ch:
	case <-stop:
	}
}

// lockSnapshotUnlock is the sanctioned pattern: snapshot under the
// lock, release, then block. No findings.
func (s *state) lockSnapshotUnlock() error {
	s.mu.Lock()
	n := s.n
	s.mu.Unlock()
	time.Sleep(time.Duration(n))
	resp, err := s.client.Get("http://example.invalid/")
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

// nonBlockingSelect has a default clause: it cannot block.
func (s *state) nonBlockingSelect(ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-ch:
	default:
	}
}

// goroutineEscapes: the blocking call runs in a new goroutine that does
// not hold the lock.
func (s *state) goroutineEscapes() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		time.Sleep(time.Millisecond)
	}()
}

func (s *state) rangeOverChannel(ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for v := range ch { // want `s\.mu held across range over channel`
		s.n += v
	}
	for _, v := range []int{1, 2} { // a slice range does not block
		s.n += v
	}
}

func (s *state) waitUnderLock(wg *sync.WaitGroup) {
	s.rw.Lock()
	wg.Wait() // want `s\.rw held across \(\*sync\.WaitGroup\)\.Wait`
	s.rw.Unlock()
}

func (s *state) roundTripUnderLock(rt http.RoundTripper, req *http.Request) error {
	s.mu.Lock()
	resp, err := rt.RoundTrip(req) // want `s\.mu held across RoundTripper\.RoundTrip`
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

// lockInBodies takes the lock inside if, else, for, switch, type
// switch, block and labeled bodies, and blocks before releasing it.
func (s *state) lockInBodies(ok bool, v any, ch chan int) {
	if ok {
		s.mu.Lock()
		time.Sleep(time.Millisecond) // want `s\.mu held across time\.Sleep`
		s.mu.Unlock()
	} else {
		s.mu.Lock()
		ch <- 1 // want `s\.mu held across channel send`
		s.mu.Unlock()
	}
	for i := 0; i < s.n; i++ {
		s.mu.Lock()
		s.n += <-ch // want `s\.mu held across channel receive`
		s.mu.Unlock()
	}
	switch s.n {
	case 1:
		s.mu.Lock()
		var x = <-ch // want `s\.mu held across channel receive`
		s.n = x
		s.mu.Unlock()
	}
	switch v.(type) {
	case int:
		s.mu.Lock()
		time.Sleep(time.Millisecond) // want `s\.mu held across time\.Sleep`
		s.mu.Unlock()
	}
	{
		s.mu.Lock()
		ch <- 2 // want `s\.mu held across channel send`
		s.mu.Unlock()
	}
loop:
	for {
		s.mu.Lock()
		time.Sleep(time.Millisecond) // want `s\.mu held across time\.Sleep`
		s.mu.Unlock()
		break loop
	}
}

// returnUnderLock blocks in the result expression, before the deferred
// unlock runs.
func (s *state) returnUnderLock(ch chan int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-ch // want `s\.mu held across channel receive`
}

func (s *state) release(int) {}

func (s *state) work(int) {}

// deferredBlocking: a deferred blocking call runs at return, outside the
// walked order, so it is not flagged; its arguments evaluate now.
func (s *state) deferredBlocking(wg *sync.WaitGroup, ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer wg.Wait()
	defer time.Sleep(time.Millisecond)
	defer s.release(<-ch) // want `s\.mu held across channel receive`
}

// goArguments: a go statement's arguments evaluate under the lock, its
// call does not.
func (s *state) goArguments(ch chan int) {
	s.mu.Lock()
	go s.work(<-ch) // want `s\.mu held across channel receive`
	s.mu.Unlock()
}

// nestedLiteral: a literal gets its own tracker. It neither inherits the
// lock held where it is created nor leaks its own lock to the caller.
func (s *state) nestedLiteral(ch chan int) {
	s.mu.Lock()
	f := func() {
		time.Sleep(time.Millisecond)
		s.rw.Lock()
		<-ch // want `s\.rw held across channel receive`
		s.rw.Unlock()
	}
	s.mu.Unlock()
	f()
	<-ch
}
