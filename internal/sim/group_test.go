package sim

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// pingModel drives a group with a deterministic mix of local events and
// cross-shard messages and returns a trace fingerprint: per shard, the
// ordered (time, tag) sequence of fired events folded into a hash.
type pingModel struct {
	g      *Group
	rngs   []*RNG
	traces [][]traceEntry
}

type traceEntry struct {
	at  Time
	tag int
}

func newPingModel(shards int, seed int64) *pingModel {
	const lookahead = Time(5 * time.Millisecond)
	m := &pingModel{g: NewGroup(shards, lookahead)}
	root := NewRNG(seed)
	m.traces = make([][]traceEntry, shards)
	for i := 0; i < shards; i++ {
		m.rngs = append(m.rngs, root.Derive(uint64(i)))
	}
	for i := 0; i < shards; i++ {
		i := i
		s := m.g.Shard(i)
		// Typed events are the cross-shard messages; A carries the tag.
		s.Kernel().SetHandler(func(k *Kernel, ev Event) {
			m.traces[i] = append(m.traces[i], traceEntry{at: k.Now(), tag: int(ev.A)})
		})
		var loop func(k *Kernel)
		loop = func(k *Kernel) {
			m.traces[i] = append(m.traces[i], traceEntry{at: k.Now(), tag: i})
			rng := m.rngs[i]
			// A burst of local events with random short delays.
			for j := 0; j < 3; j++ {
				d := time.Duration(rng.Exp(0.0005) * float64(time.Second))
				tag := 100*i + j
				k.After(d, func(k *Kernel) {
					m.traces[i] = append(m.traces[i], traceEntry{at: k.Now(), tag: tag})
				})
			}
			// A cross-shard message respecting the lookahead.
			if shards > 1 {
				to := rng.Intn(shards - 1)
				if to >= i {
					to++
				}
				at := k.Now() + m.g.lookahead + Time(rng.Exp(0.002)*float64(time.Second))
				s.Send(to, at, Event{A: int32(-1 - i)})
			}
			if k.Now() < Time(200*time.Millisecond) {
				k.After(time.Millisecond, loop)
			}
		}
		s.Kernel().At(0, loop)
	}
	return m
}

func (m *pingModel) fingerprint() uint64 {
	var h uint64 = 1469598103934665603
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	for _, tr := range m.traces {
		mix(uint64(len(tr)))
		for _, e := range tr {
			mix(uint64(e.at))
			mix(uint64(int64(e.tag)))
		}
	}
	return h
}

// TestGroupDeterminismAcrossGOMAXPROCS is the core parallel-DES
// invariant: the same seed produces bit-identical event traces no
// matter how many OS threads execute the windows. CI runs this test at
// GOMAXPROCS=1,2,8 (the determinism matrix) and diffs nothing — the
// fingerprints are asserted against an in-process serial replay here.
func TestGroupDeterminismAcrossGOMAXPROCS(t *testing.T) {
	const shards = 5
	run := func(procs int) uint64 {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		m := newPingModel(shards, 7)
		m.g.Run()
		return m.fingerprint()
	}
	base := run(1)
	for _, procs := range []int{2, 4, 8} {
		if got := run(procs); got != base {
			t.Fatalf("GOMAXPROCS=%d fingerprint %x != GOMAXPROCS=1 fingerprint %x", procs, got, base)
		}
	}
}

// TestGroupDeterminismRepeatedRuns: same seed, same trace, across
// repeated fresh groups in one process.
func TestGroupDeterminismRepeatedRuns(t *testing.T) {
	m1 := newPingModel(4, 42)
	m1.g.Run()
	m2 := newPingModel(4, 42)
	m2.g.Run()
	if m1.fingerprint() != m2.fingerprint() {
		t.Fatal("same seed produced different traces")
	}
	m3 := newPingModel(4, 43)
	m3.g.Run()
	if m1.fingerprint() == m3.fingerprint() {
		t.Fatal("different seeds produced identical traces (degenerate fingerprint?)")
	}
}

// TestGroupLookaheadViolationPanics: scheduling a cross-shard event
// closer than the lookahead must panic — it is a causality bug. Under
// the unbounded lookahead every cross-shard send is one (now+lookahead
// must saturate, not wrap negative and let the send through).
func TestGroupLookaheadViolationPanics(t *testing.T) {
	for _, lookahead := range []Time{Time(10 * time.Millisecond), MaxTime} {
		g := NewGroup(2, lookahead)
		s := g.Shard(0)
		s.Kernel().At(Time(time.Millisecond), func(k *Kernel) {
			defer func() {
				if recover() == nil {
					t.Errorf("lookahead %v: short cross-shard send did not panic", lookahead)
				}
			}()
			s.Send(1, k.Now()+Time(time.Millisecond), Event{})
		})
		g.Run()
	}
}

// TestGroupRunUntilBarrier: RunUntil leaves every kernel exactly at the
// deadline, events beyond it stay pending, and a later RunUntil picks
// them up — the barrier simrun's control ticks rely on.
func TestGroupRunUntilBarrier(t *testing.T) {
	g := NewGroup(3, Time(2*time.Millisecond))
	fired := make([]int, 3)
	for i := 0; i < 3; i++ {
		i := i
		g.Shard(i).Kernel().At(Time(5*time.Millisecond), func(*Kernel) { fired[i]++ })
		g.Shard(i).Kernel().At(Time(15*time.Millisecond), func(*Kernel) { fired[i] += 10 })
	}
	g.RunUntil(Time(10 * time.Millisecond))
	for i := 0; i < 3; i++ {
		if g.Shard(i).Kernel().Now() != Time(10*time.Millisecond) {
			t.Fatalf("shard %d clock %v, want 10ms", i, g.Shard(i).Kernel().Now())
		}
		if fired[i] != 1 {
			t.Fatalf("shard %d fired=%d before deadline, want 1", i, fired[i])
		}
	}
	g.RunUntil(Time(20 * time.Millisecond))
	for i := 0; i < 3; i++ {
		if fired[i] != 11 {
			t.Fatalf("shard %d fired=%d after second window, want 11", i, fired[i])
		}
	}
}

// TestGroupCrossShardTiming: a message lands at exactly the requested
// virtual time on the destination shard, including the edge where the
// delay equals the lookahead and the landing time equals a RunUntil
// deadline (the drain path).
func TestGroupCrossShardTiming(t *testing.T) {
	la := Time(4 * time.Millisecond)
	g := NewGroup(2, la)
	var landed Time
	g.Shard(1).Kernel().SetHandler(func(k *Kernel, _ Event) { landed = k.Now() })
	g.Shard(0).Kernel().At(Time(6*time.Millisecond), func(k *Kernel) {
		g.Shard(0).Send(1, k.Now()+la, Event{})
	})
	g.RunUntil(Time(10 * time.Millisecond))
	if landed != Time(10*time.Millisecond) {
		t.Fatalf("message landed at %v, want exactly 10ms", landed)
	}
}

// TestGroupConservativeOrder: events on one shard always fire in
// nondecreasing time order even with cross-shard traffic arriving
// between windows.
func TestGroupConservativeOrder(t *testing.T) {
	m := newPingModel(4, 99)
	m.g.Run()
	for i, tr := range m.traces {
		for j := 1; j < len(tr); j++ {
			if tr[j].at < tr[j-1].at {
				t.Fatalf("shard %d fired out of order: %v after %v", i, tr[j].at, tr[j-1].at)
			}
		}
	}
	if m.g.MessagesSent() == 0 {
		t.Fatal("model sent no cross-shard messages; test is vacuous")
	}
	if m.g.Windows() == 0 {
		t.Fatal("no windows ran")
	}
}

// TestGroupSingleShardMatchesKernel: a 1-shard group behaves exactly
// like a bare kernel (local Send degrades to Post), and under the
// unbounded lookahead a lone shard has, each RunUntil and the draining
// Run is a single window however many events it covers.
func TestGroupSingleShardMatchesKernel(t *testing.T) {
	g := NewGroup(1, MaxTime)
	var order []int
	g.Shard(0).Kernel().SetHandler(func(_ *Kernel, ev Event) { order = append(order, int(ev.A)) })
	g.Shard(0).Send(0, Time(3*time.Millisecond), Event{A: 3})
	for _, ms := range []int{1, 2, 4, 5} {
		g.Shard(0).Kernel().At(Time(ms)*Time(time.Millisecond), func(*Kernel) { order = append(order, ms) })
	}
	g.RunUntil(Time(2 * time.Millisecond))
	if len(order) != 2 || g.Windows() != 1 || g.now != Time(2*time.Millisecond) {
		t.Fatalf("after RunUntil(2ms): order %v, %d windows, clock %v; want [1 2], 1, 2ms", order, g.Windows(), g.now)
	}
	g.Run()
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v, want [1 2 3 4 5]", order)
		}
	}
	if len(order) != 5 || g.Windows() != 2 {
		t.Fatalf("after Run: %d events in %d windows, want 5 in 2", len(order), g.Windows())
	}
}

// TestRunHalfOpen: a run without inclusive stops short of its limit, as a
// Group window does, and still moves the clock to it.
func TestRunHalfOpen(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for _, at := range []Time{Time(1 * time.Millisecond), Time(2 * time.Millisecond), Time(3 * time.Millisecond)} {
		at := at
		k.At(at, func(*Kernel) { fired = append(fired, at) })
	}
	k.run(Time(2*time.Millisecond), false)
	if len(fired) != 1 || fired[0] != Time(time.Millisecond) {
		t.Fatalf("half-open run fired %v, want only 1ms", fired)
	}
	if k.Now() != Time(2*time.Millisecond) {
		t.Fatalf("clock %v, want 2ms", k.Now())
	}
	k.Run()
	if len(fired) != 3 {
		t.Fatalf("after Run fired %d events, want 3", len(fired))
	}
}

func TestRNGPareto(t *testing.T) {
	rng := NewRNG(1)
	const mean, alpha = 0.010, 1.5
	var sum, n float64
	maxv := 0.0
	for i := 0; i < 200000; i++ {
		v := rng.Pareto(mean, alpha)
		if v < 0 {
			t.Fatalf("negative draw %v", v)
		}
		sum += v
		n++
		if v > maxv {
			maxv = v
		}
	}
	got := sum / n
	if math.Abs(got-mean) > 0.25*mean {
		t.Fatalf("sample mean %v too far from %v (heavy tail tolerance 25%%)", got, mean)
	}
	// Heavy tail: the maximum of 200k draws should dwarf the mean in a
	// way exponential never does (exp max ~ mean*ln(n) ~ 12x mean).
	if maxv < 20*mean {
		t.Fatalf("max draw %v suspiciously light-tailed (mean %v)", maxv, mean)
	}
	if rng.Pareto(0, 2) != 0 { //slate:nolint floatcmp -- zero-mean contract returns the literal 0
		t.Fatal("zero mean must return 0")
	}
}
