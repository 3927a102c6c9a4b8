// Sharded parallel simulation: a Group runs several Kernels — one per
// shard — in lockstep windows of virtual time, exchanging cross-shard
// events at window barriers.
//
// The synchronization protocol is conservative (no rollback, à la
// Chandy-Misra-Bryant null messages, collapsed to a barrier because the
// lookahead is uniform): every cross-shard event must be scheduled at
// least `lookahead` beyond the sender's current virtual time. In
// SLATE's models the lookahead is the minimum one-way network delay
// between clusters owned by different shards, so the invariant holds by
// construction — a message cannot outrun the speed of light between
// clusters. Under that invariant a shard may safely execute every event
// strictly before
//
//	horizon = min(earliest pending event across all shards) + lookahead
//
// because no shard can emit a cross-shard event landing before its own
// next event plus the lookahead. Each window runs the shards
// concurrently (they share no mutable state), then a serial barrier
// moves outbox messages to the destination shards' inboxes in
// deterministic order: sorted by (timestamp, sending shard, per-sender
// sequence). Delivery order — and therefore every shard's event order —
// is a pure function of the model and the seed, independent of
// GOMAXPROCS and goroutine scheduling: runs are bit-reproducible at any
// core count.
package sim

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
)

// xmsg is one cross-shard event in flight: sent by shard `from` during a
// window, moved to shard `to`'s inbox at the barrier, posted to its
// kernel when due. seq is a per-sender counter making the sort key (at,
// from, seq) a total order. The event travels by value.
type xmsg struct {
	at       Time
	from, to int
	seq      uint64
	ev       Event
}

func cmpXmsg(a, b xmsg) int {
	return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.from, b.from), cmp.Compare(a.seq, b.seq))
}

// Shard is one member of a Group: a Kernel plus the message plumbing
// for conservative cross-shard scheduling.
type Shard struct {
	id       int
	g        *Group
	k        *Kernel
	outbox   []xmsg // messages produced during the current window
	inbox    []xmsg // sorted, pending delivery at coming barriers
	received bool   // inbox grew at this barrier and needs its order restored
	seq      uint64 // per-sender sequence for deterministic ordering
	sent     uint64 // cumulative cross-shard messages sent
	mark     uint64 // events fired before the current window
}

// Kernel returns the shard's event kernel. Model code running inside
// this shard's callbacks may use it exactly like a standalone kernel.
func (s *Shard) Kernel() *Kernel { return s.k }

// Send schedules the typed event ev for shard `to`'s handler at absolute
// virtual time at. Sends to the local shard degrade to Kernel.Post.
// Cross-shard sends must respect the group's lookahead: at >= now +
// lookahead. Violating the lookahead panics — it is always a model bug
// (the event could land in a window the destination has already
// executed), and silently reordering would destroy both causality and
// reproducibility.
//
//slate:hot
func (s *Shard) Send(to int, at Time, ev Event) {
	if to == s.id {
		s.k.Post(at, ev)
		return
	}
	if to < 0 || to >= len(s.g.shards) {
		panic(fmt.Sprintf("sim: send to unknown shard %d (group has %d)", to, len(s.g.shards)))
	}
	if at < s.g.horizon(s.k.now) {
		panic(fmt.Sprintf("sim: cross-shard send at %v violates lookahead %v (now %v)",
			at, s.g.lookahead, s.k.now))
	}
	s.outbox = append(s.outbox, xmsg{at: at, from: s.id, to: to, seq: s.seq, ev: ev})
	s.seq++
	s.sent++
}

// Group coordinates n shards under conservative windowed synchronization.
// Construct with NewGroup; not safe for concurrent use (RunUntil itself
// fans work out internally).
type Group struct {
	shards    []*Shard
	lookahead Time
	now       Time // barrier time: every shard's clock is exactly here
	windows   uint64
	critical  uint64 // Σ over windows of the busiest shard's events
	workers   int
}

// NewGroup returns a group of n fresh kernels with the given lookahead.
// The lookahead must be positive: it is the minimum virtual-time
// distance of any cross-shard event, and the window width under load.
// A group whose shards never message each other (one shard, always) has
// no such distance; it passes MaxTime, and every Run or RunUntil is then
// a single window.
func NewGroup(n int, lookahead Time) *Group {
	if n < 1 {
		panic("sim: group needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: group lookahead must be positive")
	}
	g := &Group{lookahead: lookahead, workers: runtime.GOMAXPROCS(0)}
	for i := 0; i < n; i++ {
		g.shards = append(g.shards, &Shard{id: i, g: g, k: NewKernel()})
	}
	return g
}

// Shard returns shard i.
func (g *Group) Shard(i int) *Shard { return g.shards[i] }

// Windows reports how many synchronization windows have run.
func (g *Group) Windows() uint64 { return g.windows }

// CriticalPathEvents sums, over windows, the events of each window's
// busiest shard: how many events the run takes if every window lasts as
// long as its busiest shard and nothing else. EventsProcessed divided by
// it is the speed-up an infinitely fast barrier would give; it is exactly
// 1 at one shard.
func (g *Group) CriticalPathEvents() uint64 { return g.critical }

// EventsProcessed sums event counts across shards.
func (g *Group) EventsProcessed() uint64 {
	var n uint64
	for _, s := range g.shards {
		n += s.k.EventsProcessed()
	}
	return n
}

// MessagesSent sums cross-shard messages across shards.
func (g *Group) MessagesSent() uint64 {
	var n uint64
	for _, s := range g.shards {
		n += s.sent
	}
	return n
}

// horizon returns t + lookahead, saturating at MaxTime: the time before
// which no cross-shard event sent at or after t can land.
func (g *Group) horizon(t Time) Time {
	if t > MaxTime-g.lookahead {
		return MaxTime
	}
	return t + g.lookahead
}

// nextEventAt returns the earliest timestamp any shard could fire next:
// the minimum over heap tops and undelivered inbox messages. MaxTime if
// the group is drained.
func (g *Group) nextEventAt() Time {
	at := MaxTime
	for _, s := range g.shards {
		if t, ok := s.k.peek(); ok && t < at {
			at = t
		}
		if len(s.inbox) > 0 && s.inbox[0].at < at {
			at = s.inbox[0].at
		}
	}
	return at
}

// Run executes windows until every shard's schedule (and every inbox)
// drains, then leaves the barrier clock at the last event's window end.
func (g *Group) Run() {
	for {
		next := g.nextEventAt()
		if next == MaxTime {
			return
		}
		g.window(g.horizon(next), false)
	}
}

// RunUntil executes windows until the barrier clock reaches deadline;
// events with timestamps <= deadline fire, later ones stay scheduled.
// All shards' kernels sit exactly at deadline afterwards, so the caller
// may safely read and mutate model state across every shard (the group
// is quiescent at a barrier) before resuming.
func (g *Group) RunUntil(deadline Time) {
	for g.now < deadline {
		next := g.nextEventAt()
		if next > deadline {
			// Nothing left on or before the deadline: jump straight there.
			g.window(deadline, true)
			return
		}
		wEnd := g.horizon(next)
		if wEnd >= deadline {
			g.window(deadline, true)
			continue
		}
		g.window(wEnd, false)
	}
	// Drain stragglers at exactly the deadline: an event at the deadline
	// may emit a cross-shard message landing at the deadline itself
	// (when its delay is exactly the lookahead). Each drain round can
	// only surface messages sent from time == deadline, which land at
	// >= deadline + lookahead, so this terminates.
	for {
		due := false
		for _, s := range g.shards {
			if len(s.inbox) > 0 && s.inbox[0].at <= deadline {
				due = true
				break
			}
		}
		if !due {
			return
		}
		g.window(deadline, true)
	}
}

// window advances every shard to wEnd. When inclusive, events at
// exactly wEnd fire too (as in Group.RunUntil's deadline);
// otherwise the window is half-open [now, wEnd) as the conservative
// horizon demands.
func (g *Group) window(wEnd Time, inclusive bool) {
	g.windows++
	// Deliver due inbox messages before the shards start. Inboxes are
	// kept sorted by (at, from, seq); insertion into the kernel in that
	// order assigns heap sequence numbers deterministically.
	for _, s := range g.shards {
		cut := 0
		for cut < len(s.inbox) {
			m := s.inbox[cut]
			if m.at > wEnd || (!inclusive && m.at == wEnd) {
				break
			}
			s.k.Post(m.at, m.ev)
			cut++
		}
		if cut > 0 {
			s.inbox = append(s.inbox[:0], s.inbox[cut:]...)
		}
	}
	for _, s := range g.shards {
		s.mark = s.k.nEvents
	}
	// Run the window: shards share no mutable state, so they may run
	// concurrently; with one worker (or one shard) run inline.
	if g.workers > 1 && len(g.shards) > 1 {
		var wg sync.WaitGroup
		for _, s := range g.shards {
			wg.Add(1)
			go func(s *Shard) {
				defer wg.Done()
				s.k.run(wEnd, inclusive)
			}(s)
		}
		wg.Wait()
	} else {
		for _, s := range g.shards {
			s.k.run(wEnd, inclusive)
		}
	}
	var busiest uint64
	for _, s := range g.shards {
		busiest = max(busiest, s.k.nEvents-s.mark)
	}
	g.critical += busiest
	// Barrier: exchange outboxes in shard order, then restore the (at,
	// from, seq) order of each inbox that received something. The
	// exchange runs on the calling goroutine after wg.Wait, so it is
	// serial and deterministic.
	for _, s := range g.shards {
		for _, m := range s.outbox {
			dst := g.shards[m.to]
			dst.inbox = append(dst.inbox, m)
			dst.received = true
		}
		s.outbox = s.outbox[:0]
	}
	for _, s := range g.shards {
		if s.received {
			slices.SortFunc(s.inbox, cmpXmsg)
			s.received = false
		}
	}
	g.now = wEnd
}
