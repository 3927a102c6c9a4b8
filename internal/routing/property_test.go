package routing

import (
	"fmt"
	"math"
	"testing"

	"github.com/servicelayernetworking/slate/internal/sim"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// randomWeights draws a weight map over up to 6 clusters. Roughly one
// draw in five is deliberately invalid (negative, NaN, Inf, or all
// zero) so the error path is exercised alongside the happy path.
func randomWeights(rng *sim.RNG) map[topology.ClusterID]float64 {
	n := 1 + rng.Intn(6)
	m := make(map[topology.ClusterID]float64, n)
	for i := 0; i < n; i++ {
		c := topology.ClusterID(fmt.Sprintf("c%d", i))
		switch rng.Intn(10) {
		case 0:
			m[c] = -rng.Float64()
		case 1:
			m[c] = math.NaN()
		case 2:
			m[c] = math.Inf(1)
		case 3:
			m[c] = 0
		default:
			m[c] = rng.Float64() * math.Pow(10, float64(rng.Intn(9)-4))
		}
	}
	return m
}

func validWeights(m map[topology.ClusterID]float64) bool {
	var sum float64
	for _, w := range m {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return false
		}
		sum += w
	}
	return sum > 0 && !math.IsInf(sum, 0)
}

// TestNewDistributionProperties checks the Distribution invariants over
// seeded random weight maps: NewDistribution accepts exactly the valid
// inputs, and every accepted distribution has non-negative weights
// summing to 1 with Pick always landing on a positive-weight cluster.
func TestNewDistributionProperties(t *testing.T) {
	rng := sim.NewRNG(20240805)
	accepted, rejected := 0, 0
	for trial := 0; trial < 2000; trial++ {
		m := randomWeights(rng)
		d, err := NewDistribution(m)
		if validWeights(m) != (err == nil) {
			t.Fatalf("trial %d: NewDistribution(%v) err=%v, valid=%v", trial, m, err, validWeights(m))
		}
		if err != nil {
			rejected++
			if !d.IsZero() {
				t.Fatalf("trial %d: error path returned non-zero distribution %v", trial, d)
			}
			continue
		}
		accepted++

		var sum float64
		for _, c := range d.Clusters() {
			w := d.Weight(c)
			if w <= 0 || w > 1 {
				t.Fatalf("trial %d: weight %v for %q out of (0, 1]", trial, w, c)
			}
			sum += w
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("trial %d: weights sum to %v, want 1 (input %v)", trial, sum, m)
		}

		// Pick must stay inside the support for any u in [0, 1).
		members := make(map[topology.ClusterID]bool, len(d.Clusters()))
		for _, c := range d.Clusters() {
			members[c] = true
		}
		for draw := 0; draw < 20; draw++ {
			u := rng.Float64()
			if dst := d.Pick(u); !members[dst] {
				t.Fatalf("trial %d: Pick(%v) = %q outside support %v", trial, u, dst, d.Clusters())
			}
		}
		if dst := d.Pick(0); !members[dst] {
			t.Fatalf("trial %d: Pick(0) = %q outside support", trial, dst)
		}
		// Guard against rounding at the top of the cumulative sum.
		if dst := d.Pick(math.Nextafter(1, 0)); !members[dst] {
			t.Fatalf("trial %d: Pick(1-ulp) = %q outside support", trial, dst)
		}

		// Weights() round-trips through NewDistribution to the same
		// normalized values.
		d2, err := NewDistribution(d.Weights())
		if err != nil {
			t.Fatalf("trial %d: re-normalizing failed: %v", trial, err)
		}
		for _, c := range d.Clusters() {
			if math.Abs(d2.Weight(c)-d.Weight(c)) > 1e-12 {
				t.Fatalf("trial %d: re-normalized weight for %q drifted: %v vs %v",
					trial, c, d2.Weight(c), d.Weight(c))
			}
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("unbalanced trial mix: %d accepted, %d rejected", accepted, rejected)
	}
}

// TestLocalInterningProperties checks that Local always routes 100% to
// its argument and — after a warm-up call — is allocation-free for any
// cluster ID, including ones never seen at table-build time.
func TestLocalInterningProperties(t *testing.T) {
	rng := sim.NewRNG(7)
	ids := make([]topology.ClusterID, 32)
	for i := range ids {
		ids[i] = topology.ClusterID(fmt.Sprintf("rand-%d-%d", i, rng.Intn(1<<20)))
	}
	for _, c := range ids {
		d := Local(c)
		if got := d.Weight(c); got != 1 { //slate:nolint floatcmp -- interned constant, exact by construction
			t.Fatalf("Local(%q).Weight = %v, want 1", c, got)
		}
		if dst := d.Pick(rng.Float64()); dst != c {
			t.Fatalf("Local(%q).Pick = %q", c, dst)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		for _, c := range ids {
			if Local(c).IsZero() {
				t.Fatal("zero local distribution")
			}
		}
	}); n != 0 { //slate:nolint floatcmp -- AllocsPerRun returns an integer-valued count
		t.Fatalf("warm Local allocates %v per run, want 0", n)
	}
}

// distWithWeights builds a distribution with exactly these weights — no
// normalization — so that differences can sit on Diff's 1e-12 threshold.
func distWithWeights(w ...float64) Distribution {
	var d Distribution
	for i, x := range w {
		if x > 0 {
			d.clusters = append(d.clusters, topology.ClusterID(fmt.Sprintf("c%d", i)))
			d.weights = append(d.weights, x)
		}
	}
	return d
}

// TestEqualMatchesDiff checks Equal(a, b) == (len(Diff(a, b)) == 0) over
// seeded random table pairs built to stress every branch of Diff: keys
// in one table only (compared against the other's AnyClass rule or the
// implicit local rule), clusters in one distribution only, and weight
// differences just under, on and just over the 1e-12 threshold.
func TestEqualMatchesDiff(t *testing.T) {
	rng := sim.NewRNG(19)
	nudges := []float64{0, 5e-13, 1e-12, math.Nextafter(1e-12, 0), math.Nextafter(1e-12, 1), 2e-12, 1e-3}
	equal, differ := 0, 0
	for trial := 0; trial < 3000; trial++ {
		a, b := map[Key]Distribution{}, map[Key]Distribution{}
		for n := rng.Intn(5); n > 0; n-- {
			k := Key{
				Service: fmt.Sprintf("s%d", rng.Intn(2)),
				Class:   []string{"x", "y", AnyClass}[rng.Intn(3)],
				Cluster: topology.ClusterID(fmt.Sprintf("c%d", rng.Intn(3))),
			}
			w := []float64{rng.Float64(), rng.Float64(), 0}
			switch rng.Intn(4) {
			case 0: // all local: equals the implicit rule of a table without the key
				w = []float64{0, 0, 0}
				w[int(k.Cluster[1]-'0')] = 1
			case 1: // a cluster with a weight below the threshold
				w[2] = 4e-13
			}
			da := distWithWeights(w...)
			w[rng.Intn(2)] += nudges[rng.Intn(len(nudges))]
			db := distWithWeights(w...)
			switch rng.Intn(6) {
			case 0:
				a[k] = da
			case 1:
				b[k] = db
			default:
				a[k], b[k] = da, db
			}
		}
		ta, tb := NewTable(1, a), NewTable(2, b)
		for _, pair := range [][2]*Table{{ta, tb}, {tb, ta}, {ta, ta}} {
			want := len(Diff(pair[0], pair[1])) == 0
			if got := Equal(pair[0], pair[1]); got != want {
				t.Fatalf("trial %d: Equal = %v but Diff = %v\nold %v\nnew %v", trial, got, Diff(pair[0], pair[1]), pair[0], pair[1])
			}
			if want {
				equal++
			} else {
				differ++
			}
		}
	}
	if equal < 1000 || differ < 1000 {
		t.Fatalf("unbalanced trial mix: %d equal pairs, %d differing", equal, differ)
	}
}
