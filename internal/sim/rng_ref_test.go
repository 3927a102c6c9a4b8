package sim

// The reference stream: RNG as it stood before the source was ported
// into this package, a wrapper over math/rand's rand.Rand, kept verbatim
// with its names spelled ref*. TestStreamMatchesMathRand and
// FuzzStreamMatchesMathRand hold the live RNG to it draw for draw.

import (
	"math"
	"math/rand"
)

// refRNG is a deterministic random stream for simulation models. Each model
// component should own its own stream (derived from the scenario seed via
// Derive) so that adding randomness to one component does not perturb the
// draws seen by another — this keeps A/B comparisons between routing
// policies paired: the same request arrivals and service demands are
// replayed under each policy.
type refRNG struct {
	seed uint64
	r    rand.Rand // by value: a stream is itself and its source, two objects
}

// newRefRNG returns a stream seeded with seed.
func newRefRNG(seed int64) *refRNG {
	return &refRNG{seed: uint64(seed), r: *rand.New(rand.NewSource(seed))}
}

// Derive returns an independent child stream identified by id. The
// child's seed is a pure function of the parent's seed and the id — it
// does not consume parent stream state — so derivation is
// order-independent: components may be created in any order (e.g. map
// iteration) without perturbing each other's draws.
func (g *refRNG) Derive(id uint64) *refRNG {
	return newRefRNG(int64(refSplitmix64(g.seed ^ refSplitmix64(id))))
}

// DeriveNamed returns a child stream keyed by a string label, for
// components that are naturally named (service/cluster IDs).
func (g *refRNG) DeriveNamed(name string) *refRNG {
	var h uint64 = 14695981039346656037 // FNV-1a offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return g.Derive(h)
}

func refSplitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform draw in [0, 1).
func (g *refRNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform draw in [0, n).
func (g *refRNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a uniform non-negative 63-bit draw (for ID minting).
func (g *refRNG) Int63() int64 { return g.r.Int63() }

// Exp returns an exponential draw with the given mean.
func (g *refRNG) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.r.ExpFloat64() * mean
}

// Pareto returns a heavy-tailed draw with the given mean from a Lomax
// (Pareto type II) distribution with shape alpha. The scale is chosen
// as mean*(alpha-1) so the mean is preserved for any alpha > 1; smaller
// alpha means a heavier tail (the variance is infinite for alpha <= 2).
// alpha <= 1 is clamped to 1.05 — the mean would otherwise diverge.
func (g *refRNG) Pareto(mean, alpha float64) float64 {
	if mean <= 0 {
		return 0
	}
	if alpha <= 1 {
		alpha = 1.05
	}
	u := g.r.Float64()
	// Inverse CDF of Lomax: x = scale * ((1-u)^(-1/alpha) - 1).
	scale := mean * (alpha - 1)
	return scale * (math.Pow(1-u, -1/alpha) - 1)
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *refRNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }
