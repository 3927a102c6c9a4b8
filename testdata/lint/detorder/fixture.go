// Package fixture exercises the detorder analyzer: map iteration
// feeding ordered sinks in determinism-critical code.
package fixture

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"time"

	"github.com/servicelayernetworking/slate/internal/sim"
)

// fingerprint hashes map entries in iteration order: two runs of the
// same process produce different fingerprints.
func fingerprint(m map[string]int) uint64 {
	h := fnv.New64a()
	for k := range m {
		h.Write([]byte(k)) // want `Write inside range over map m writes in random order`
	}
	return h.Sum64()
}

// emit writes a report straight from map order.
func emit(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want `fmt\.Fprintf inside range over map m emits in random order`
	}
}

// columns builds LP columns from map order — the PR 5 degenerate-vertex
// bug class.
func columns(m map[string]int) []string {
	var cols []string
	for k := range m {
		cols = append(cols, k) // want `append to cols inside range over map m produces random order`
	}
	return cols
}

// sortedKeys is the blessed collect-then-sort idiom: the append target
// is sorted after the loop, so there is no finding.
func sortedKeys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// total accumulates floats in map order: addition is not associative,
// so the sum depends on iteration order.
func total(weights map[string]float64) float64 {
	var sum float64
	for _, w := range weights {
		sum += w // want `order-dependent accumulation \(\+=\) into sum inside range over map weights`
	}
	return sum
}

// count accumulates integers: order-independent, no finding.
func count(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// localAccum accumulates into a per-iteration local: resets every
// round, so order cannot leak out. No finding.
func localAccum(weights map[string]float64) []float64 {
	var out []float64
	for _, w := range weights {
		half := 0.0
		half += w / 2
		out = append(out, half)
	}
	sort.Float64s(out)
	return out
}

// schedule hands the kernel one event per map entry: events landing at
// the same instant fire in schedule order, so the run depends on map
// order.
func schedule(k *sim.Kernel, delays map[string]time.Duration) {
	for _, d := range delays {
		k.After(d, func(*sim.Kernel) {}) // want `sim\.Kernel\.After inside range over map delays schedules events in random order`
	}
}

// post does the same with typed events, and with the sequence numbers
// it reserves for later ones.
func post(k *sim.Kernel, delays map[string]time.Duration) {
	for _, d := range delays {
		k.Post(sim.Time(d), sim.Event{})                       // want `sim\.Kernel\.Post inside range over map delays schedules events in random order`
		k.PostReserved(sim.Time(d), k.Reserve(1), sim.Event{}) // want `sim\.Kernel\.PostReserved inside range over map delays schedules events in random order` `sim\.Kernel\.Reserve inside range over map delays schedules events in random order`
	}
}

// scheduleSorted walks sorted keys instead: no finding.
func scheduleSorted(k *sim.Kernel, delays map[string]time.Duration) {
	var names []string
	for name := range delays {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		k.After(delays[name], func(*sim.Kernel) {})
	}
}

// suppressed shows //slate:nolint working against detorder.
func suppressed(m map[string]int) []string {
	var cols []string
	for k := range m {
		cols = append(cols, k) //slate:nolint detorder -- fixture: demonstrates suppression
	}
	return cols
}
