package sim

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// oracleSeeds are the seeds the port is held to math/rand on: the
// seeding edge cases (0 and every multiple of 2³¹−1 reduce to the same
// fallback seed 89482311, negatives wrap), the int64 extremes, and 64
// seeds drawn from a fixed stream.
func oracleSeeds() []int64 {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, m, 2 * m, -3 * m, 1 << 31 * m, math.MinInt64, math.MaxInt64, 89482311}
	r := rand.New(rand.NewSource(20241017))
	for range 64 {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// oracleIntn are the Intn bounds: the power-of-two mask path, the
// rejection path on both sides of math/rand's 31-bit cut-over, and 2⁴⁰.
var oracleIntn = []int64{1, 2, 3, 1000, 1<<31 - 1, 1 << 40}

// step applies one scripted draw, chosen by op, to both streams and
// fails on the first difference. A Derive or DeriveNamed op replaces
// the pair with their children, so a script walks the derivation tree.
func step(t *testing.T, op byte, g *RNG, ref *refRNG) (*RNG, *refRNG) {
	t.Helper()
	arg := int(op >> 3)
	switch op & 7 {
	case 0:
		sameBits(t, "Float64", g.Float64(), ref.Float64())
	case 1:
		if a, b := g.Int63(), ref.Int63(); a != b {
			t.Fatalf("Int63 = %d, math/rand %d", a, b)
		}
	case 2:
		n := int(oracleIntn[arg%len(oracleIntn)])
		if a, b := g.Intn(n), ref.Intn(n); a != b {
			t.Fatalf("Intn(%d) = %d, math/rand %d", n, a, b)
		}
	case 3:
		mean := []float64{1, 0.25, 0, 3e-3}[arg%4]
		sameBits(t, "Exp", g.Exp(mean), ref.Exp(mean))
	case 4:
		alpha := []float64{0.9, 1.8, 3, 1.05}[arg%4]
		sameBits(t, "Pareto", g.Pareto(2e-3, alpha), ref.Pareto(2e-3, alpha))
	case 5:
		a, b := perm(arg), perm(arg)
		g.Shuffle(arg, func(i, j int) { a[i], a[j] = a[j], a[i] })
		ref.Shuffle(arg, func(i, j int) { b[i], b[j] = b[j], b[i] })
		if !slices.Equal(a, b) {
			t.Fatalf("Shuffle(%d) = %v, math/rand %v", arg, a, b)
		}
	case 6:
		return g.Derive(uint64(op)), ref.Derive(uint64(op))
	case 7:
		name := "svc" + strconv.Itoa(arg) + "@c00" + strconv.Itoa(arg%3)
		return g.DeriveNamed(name), ref.DeriveNamed(name)
	}
	return g, ref
}

func perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

func sameBits(t *testing.T, what string, a, b float64) {
	t.Helper()
	if math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("%s = %v, math/rand %v", what, a, b)
	}
}

// TestStreamMatchesMathRand holds the in-package source to math/rand:
// for every oracle seed, 2 000 draws of each method, from a fresh pair
// of streams per method and parameter, are bit-identical to the
// predecessor RNG's (rng_ref_test.go), and so are derived children,
// whether returned or seeded in place over a used stream.
func TestStreamMatchesMathRand(t *testing.T) {
	const draws = 2000
	for _, seed := range oracleSeeds() {
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			for _, ops := range [][]byte{
				{0}, {1}, {3}, {3 | 1<<3}, {3 | 2<<3}, {4}, {4 | 1<<3}, {4 | 2<<3},
				{2}, {2 | 1<<3}, {2 | 2<<3}, {2 | 3<<3}, {2 | 4<<3}, {2 | 5<<3},
			} {
				g, ref := NewRNG(seed), newRefRNG(seed)
				for range draws {
					step(t, ops[0], g, ref)
				}
			}
			// Shuffles of 0 to 49 elements.
			g, ref := NewRNG(seed), newRefRNG(seed)
			for i := range draws {
				step(t, 5|byte(i%50)<<3, g, ref)
			}
			// Children: by id and by name, returned and in place.
			parent, refParent := NewRNG(seed), newRefRNG(seed)
			var slot RNG
			for i := range 8 {
				id := uint64(i) * 0x9e3779b97f4a7c15
				name := "svc/" + strconv.Itoa(i) + "@c001"
				parent.DeriveNamedInto(&slot, name)
				for _, pair := range []struct {
					g   *RNG
					ref *refRNG
				}{
					{parent.Derive(id), refParent.Derive(id)},
					{parent.DeriveNamed(name), refParent.DeriveNamed(name)},
					{&slot, refParent.DeriveNamed(name)},
				} {
					for range draws / 8 {
						step(t, 0, pair.g, pair.ref)
					}
				}
			}
		})
	}
}

// FuzzStreamMatchesMathRand runs an arbitrary script of draws and
// derivations (one op per byte, see step) on a seed against the
// predecessor RNG.
func FuzzStreamMatchesMathRand(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(3*(1<<31-1)), []byte{2 | 4<<3, 2 | 5<<3, 0, 7, 5 | 9<<3})
	f.Add(int64(math.MinInt64), []byte{6, 0, 4 | 1<<3, 1, 3 | 2<<3})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		g, ref := NewRNG(seed), newRefRNG(seed)
		for _, op := range script {
			g, ref = step(t, op, g, ref)
		}
	})
}

// rngSink keeps a returned stream reachable, so that the compiler
// cannot place it on the stack.
var rngSink *RNG

// TestRNGAllocations pins the streams' heap objects: no draw method and
// no in-place seeding allocates (the source is held by value, and the
// rand.Rand that Intn, Exp and Shuffle wrap around it stays on the
// stack); NewRNG, Derive and DeriveNamed make the stream and nothing
// else.
func TestRNGAllocations(t *testing.T) {
	g := NewRNG(1)
	var slot RNG
	a := perm(16)
	swap := func(i, j int) { a[i], a[j] = a[j], a[i] }
	for _, c := range []struct {
		name string
		want int
		f    func()
	}{
		{"Float64", 0, func() { g.Float64() }},
		{"Int63", 0, func() { g.Int63() }},
		{"Intn", 0, func() { g.Intn(1000) }},
		{"Exp", 0, func() { g.Exp(1) }},
		{"Pareto", 0, func() { g.Pareto(1, 1.8) }},
		{"Shuffle", 0, func() { g.Shuffle(len(a), swap) }},
		{"DeriveNamedInto", 0, func() { g.DeriveNamedInto(&slot, "svc/a@west") }},
		{"NewRNG", 1, func() { rngSink = NewRNG(7) }},
		{"Derive", 1, func() { rngSink = g.Derive(7) }},
		{"DeriveNamed", 1, func() { rngSink = g.DeriveNamed("svc/a@west") }},
	} {
		if n := testing.AllocsPerRun(100, c.f); int(n) != c.want {
			t.Errorf("%s allocates %v objects, want %d", c.name, n, c.want)
		}
	}
}

// BenchmarkDraws times each draw method on the in-package source
// (port) and on the math/rand wrapper it replaced (mathrand).
func BenchmarkDraws(b *testing.B) {
	a := perm(16)
	swap := func(i, j int) { a[i], a[j] = a[j], a[i] }
	for _, m := range []struct {
		name string
		port func(*RNG)
		ref  func(*refRNG)
	}{
		{"Float64", func(g *RNG) { g.Float64() }, func(g *refRNG) { g.Float64() }},
		{"Int63", func(g *RNG) { g.Int63() }, func(g *refRNG) { g.Int63() }},
		{"Intn", func(g *RNG) { g.Intn(1000) }, func(g *refRNG) { g.Intn(1000) }},
		{"Exp", func(g *RNG) { g.Exp(1) }, func(g *refRNG) { g.Exp(1) }},
		{"Pareto", func(g *RNG) { g.Pareto(1, 1.8) }, func(g *refRNG) { g.Pareto(1, 1.8) }},
		{"Shuffle16", func(g *RNG) { g.Shuffle(len(a), swap) }, func(g *refRNG) { g.Shuffle(len(a), swap) }},
	} {
		b.Run(m.name+"/port", func(b *testing.B) {
			g := NewRNG(1)
			for range b.N {
				m.port(g)
			}
		})
		b.Run(m.name+"/mathrand", func(b *testing.B) {
			g := newRefRNG(1)
			for range b.N {
				m.ref(g)
			}
		})
	}
}

// BenchmarkSeed times seeding one named child stream: in place into a
// reused slot, as a new stream, and as the math/rand wrapper did.
func BenchmarkSeed(b *testing.B) {
	b.Run("into", func(b *testing.B) {
		g := NewRNG(1)
		var slot RNG
		b.ReportAllocs()
		for range b.N {
			g.DeriveNamedInto(&slot, "svc/svc0042@c003")
		}
	})
	b.Run("new", func(b *testing.B) {
		g := NewRNG(1)
		b.ReportAllocs()
		for range b.N {
			rngSink = g.DeriveNamed("svc/svc0042@c003")
		}
	})
	b.Run("mathrand", func(b *testing.B) {
		g := newRefRNG(1)
		b.ReportAllocs()
		for range b.N {
			g.DeriveNamed("svc/svc0042@c003")
		}
	})
}
