package sim

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random stream for simulation models. Each model
// component should own its own stream (derived from the scenario seed via
// Derive) so that adding randomness to one component does not perturb the
// draws seen by another — this keeps A/B comparisons between routing
// policies paired: the same request arrivals and service demands are
// replayed under each policy.
//
// A stream yields math/rand's Go 1 value stream for its seed, draw for
// draw. It holds its source by value and no pointer into itself, so a
// stream is one object, and many streams seeded in place
// (DeriveNamedInto) into one slice are one object.
type RNG struct {
	seed uint64
	src  source
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	g := new(RNG)
	g.reseed(seed)
	return g
}

// reseed seeds g in place. It is the one seeding path: NewRNG, Derive,
// DeriveNamed and DeriveNamedInto all end here.
func (g *RNG) reseed(seed int64) {
	g.seed = uint64(seed)
	g.src.Seed(seed)
}

// Derive returns an independent child stream identified by id. The
// child's seed is a pure function of the parent's seed and the id — it
// does not consume parent stream state — so derivation is
// order-independent: components may be created in any order (e.g. map
// iteration) without perturbing each other's draws.
func (g *RNG) Derive(id uint64) *RNG {
	return NewRNG(g.childSeed(id))
}

// DeriveNamed returns a child stream keyed by a string label, for
// components that are naturally named (service/cluster IDs).
func (g *RNG) DeriveNamed(name string) *RNG {
	return g.Derive(nameID(name))
}

// DeriveNamedInto seeds dst in place as the stream DeriveNamed(name)
// returns, without allocating: a run seeds all its pools' streams into
// one slice this way.
func (g *RNG) DeriveNamedInto(dst *RNG, name string) {
	dst.reseed(g.childSeed(nameID(name)))
}

func (g *RNG) childSeed(id uint64) int64 {
	return int64(splitmix64(g.seed ^ splitmix64(id)))
}

// nameID hashes a label with FNV-1a.
func nameID(name string) uint64 {
	var h uint64 = 14695981039346656037 // FNV-1a offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform draw in [0, 1): math/rand's Float64, which
// redraws the 1 in 2⁵³ value that rounds up to 1. The redraw is a for
// loop, not math/rand's backward goto: inlined into a caller, a label
// makes escape analysis treat the rest of that caller as a loop, and
// the caller's open-coded defer would move to the heap.
//
//slate:hot
func (g *RNG) Float64() float64 {
	for {
		if f := float64(g.src.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// Intn returns a uniform draw in [0, n).
func (g *RNG) Intn(n int) int { return rand.New(&g.src).Intn(n) }

// Int63 returns a uniform non-negative 63-bit draw (for ID minting).
func (g *RNG) Int63() int64 { return g.src.Int63() }

// Exp returns an exponential draw with the given mean.
//
//slate:hot
func (g *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return rand.New(&g.src).ExpFloat64() * mean
}

// Pareto returns a heavy-tailed draw with the given mean from a Lomax
// (Pareto type II) distribution with shape alpha. The scale is chosen
// as mean*(alpha-1) so the mean is preserved for any alpha > 1; smaller
// alpha means a heavier tail (the variance is infinite for alpha <= 2).
// alpha <= 1 is clamped to 1.05 — the mean would otherwise diverge.
//
//slate:hot
func (g *RNG) Pareto(mean, alpha float64) float64 {
	if mean <= 0 {
		return 0
	}
	if alpha <= 1 {
		alpha = 1.05
	}
	u := g.Float64()
	// Inverse CDF of Lomax: x = scale * ((1-u)^(-1/alpha) - 1).
	scale := mean * (alpha - 1)
	return scale * (math.Pow(1-u, -1/alpha) - 1)
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { rand.New(&g.src).Shuffle(n, swap) }
