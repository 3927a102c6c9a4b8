// Package fixture exercises the lockorder analyzer: cross-function
// lock-acquisition cycles between mutex classes.
package fixture

import "sync"

type a struct{ mu sync.Mutex }
type b struct{ mu sync.Mutex }

type pair struct {
	x a
	y b
}

// lockXY acquires (fixture.a).mu then (fixture.b).mu.
func (p *pair) lockXY() {
	p.x.mu.Lock()
	defer p.x.mu.Unlock()
	p.y.mu.Lock() // want `lock-order cycle between \(fixture\.a\)\.mu, \(fixture\.b\)\.mu`
	defer p.y.mu.Unlock()
}

// lockYX inverts the order: together with lockXY this is the classic
// two-mutex deadlock.
func (p *pair) lockYX() {
	p.y.mu.Lock()
	defer p.y.mu.Unlock()
	p.x.mu.Lock()
	defer p.x.mu.Unlock()
}

type c struct{ mu sync.Mutex }
type d struct{ mu sync.Mutex }

type deep struct {
	c c
	d d
}

// lockCD holds c.mu across a call whose callee acquires d.mu: the edge
// comes from the transitive acquisition set, not a direct Lock.
func (q *deep) lockCD() {
	q.c.mu.Lock()
	q.helper() // want `lock-order cycle between \(fixture\.c\)\.mu, \(fixture\.d\)\.mu`
	q.c.mu.Unlock()
}

func (q *deep) helper() {
	q.d.mu.Lock()
	q.d.mu.Unlock()
}

// lockDC closes the cycle through another callee.
func (q *deep) lockDC() {
	q.d.mu.Lock()
	q.lockC()
	q.d.mu.Unlock()
}

func (q *deep) lockC() {
	q.c.mu.Lock()
	q.c.mu.Unlock()
}

type stripe struct{ mu sync.Mutex }

// swap nests two locks of the same class: two goroutines swapping
// (s1, s2) and (s2, s1) deadlock.
func swap(s1, s2 *stripe) {
	s1.mu.Lock()
	s2.mu.Lock() // want `acquiring a second \(fixture\.stripe\)\.mu while one is held`
	s2.mu.Unlock()
	s1.mu.Unlock()
}

type e struct{ mu sync.Mutex }
type f struct{ mu sync.Mutex }

type ordered struct {
	e e
	f f
}

// consistent always acquires e before f — a DAG, no finding.
func (o *ordered) consistent() {
	o.e.mu.Lock()
	defer o.e.mu.Unlock()
	o.f.mu.Lock()
	defer o.f.mu.Unlock()
}

// consistentToo repeats the same order elsewhere: still no cycle.
func (o *ordered) consistentToo() {
	o.e.mu.Lock()
	o.f.mu.Lock()
	o.f.mu.Unlock()
	o.e.mu.Unlock()
}

// sequential releases each stripe before the next — the snapshot
// pattern — so no same-class nesting is reported.
func sequential(ss []*stripe) {
	for _, s := range ss {
		s.mu.Lock()
		s.mu.Unlock()
	}
}

// registryMu is a package-level mutex: its class is the package-qualified
// variable name.
var registryMu sync.Mutex

type entry struct{ mu sync.Mutex }

func (x *entry) registerLocked() {
	registryMu.Lock()
	x.mu.Lock()
	x.mu.Unlock()
	registryMu.Unlock()
}

// inverted takes the entry before the registry: a cycle with
// registerLocked.
func (x *entry) inverted() {
	x.mu.Lock()
	registryMu.Lock() // want `lock-order cycle between \(fixture\.entry\)\.mu, fixture\.registryMu`
	registryMu.Unlock()
	x.mu.Unlock()
}

// localsXY and localsYX nest function-local mutexes in opposite orders.
// A local's class is scoped to its function, so they do not alias.
func localsXY() {
	var mx, my sync.Mutex
	mx.Lock()
	my.Lock()
	my.Unlock()
	mx.Unlock()
}

func localsYX() {
	var mx, my sync.Mutex
	my.Lock()
	mx.Lock()
	mx.Unlock()
	my.Unlock()
}

// localsInverted inverts two locals inside one function: their classes
// meet.
func localsInverted(first bool) {
	var mx, my sync.Mutex
	if first {
		mx.Lock()
		my.Lock() // want `lock-order cycle between lockorder\.localsInverted\.mx, lockorder\.localsInverted\.my`
		my.Unlock()
		mx.Unlock()
		return
	}
	my.Lock()
	mx.Lock()
	mx.Unlock()
	my.Unlock()
}

type g1 struct{ mu sync.Mutex }
type g2 struct{ mu sync.Mutex }
type g3 struct{ mu sync.Mutex }

type nest struct {
	a g1
	b g2
	c g3
}

// ifNest, switchNest and selectNest each acquire one class while
// holding another, inside a branch body: a three-class cycle.
func (n *nest) ifNest(ok bool) {
	n.a.mu.Lock()
	if ok {
		n.b.mu.Lock() // want `lock-order cycle between \(fixture\.g1\)\.mu, \(fixture\.g2\)\.mu, \(fixture\.g3\)\.mu`
		n.b.mu.Unlock()
	}
	n.a.mu.Unlock()
}

func (n *nest) switchNest(k int) {
	n.b.mu.Lock()
	switch k {
	case 1:
		n.c.mu.Lock()
		n.c.mu.Unlock()
	}
	n.b.mu.Unlock()
}

func (n *nest) selectNest(ch chan int) {
	n.c.mu.Lock()
	select {
	case <-ch:
		n.a.mu.Lock()
		n.a.mu.Unlock()
	default:
	}
	n.c.mu.Unlock()
}

type s1 struct{ mu sync.Mutex }
type s2 struct{ mu sync.Mutex }

type spawner struct {
	x s1
	y s2
}

// spawnUnderLock launches lockY in a goroutine while holding x: the
// goroutine does not run under x, so no x → y edge, and no cycle with
// yThenX.
func (p *spawner) spawnUnderLock() {
	p.x.mu.Lock()
	go p.lockY()
	p.x.mu.Unlock()
}

func (p *spawner) lockY() {
	p.y.mu.Lock()
	p.y.mu.Unlock()
}

func (p *spawner) yThenX() {
	p.y.mu.Lock()
	p.x.mu.Lock()
	p.x.mu.Unlock()
	p.y.mu.Unlock()
}

// locker is dispatched dynamically: a call through it acquires whatever
// its implementations acquire.
type locker interface{ lockIt() }

type impl struct{ mu sync.Mutex }

func (x *impl) lockIt() {
	x.mu.Lock()
	x.mu.Unlock()
}

type owner struct {
	mu sync.Mutex
	l  locker
}

func (o *owner) viaInterface() {
	o.mu.Lock()
	o.l.lockIt()
	o.mu.Unlock()
}

// implThenOwner closes the cycle with viaInterface's dispatch edge.
func (x *impl) implThenOwner(o *owner) {
	x.mu.Lock()
	o.mu.Lock() // want `lock-order cycle between \(fixture\.impl\)\.mu, \(fixture\.owner\)\.mu: \(fixture\.impl\)\.mu → \(fixture\.owner\)\.mu .*; \(fixture\.owner\)\.mu → \(fixture\.impl\)\.mu \(in [^ ]*viaInterface via call to [^ ]*impl\)\.lockIt`
	o.mu.Unlock()
	x.mu.Unlock()
}
