package forecast

import (
	"math"
	"math/rand"
	"testing"

	"github.com/servicelayernetworking/slate/internal/sim"
)

var key = Key{Class: "default", Cluster: "us-west"}

// predict returns f's h-windows-ahead forecast for k: what Each reports
// for it, and 0 for an unknown key.
func predict(f *Forecaster, k Key, h int) float64 { return f.states[k].predict(f.cfg, h) }

// seasonalSeries generates a noisy additive-seasonal series: mean +
// amplitude·sin(2πt/period) + N(0, noise²), clamped non-negative, from a
// seeded source so every run sees the same values.
func seasonalSeries(seed int64, n, period int, mean, amplitude, noise float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for t := range out {
		v := mean + amplitude*math.Sin(2*math.Pi*float64(t)/float64(period))
		if noise > 0 {
			v += rng.NormFloat64() * noise
		}
		out[t] = math.Max(0, v)
	}
	return out
}

// TestForecastHoltWintersConverges feeds a seeded synthetic seasonal
// series and checks the one-step-ahead forecast converges within
// tolerance of the true next value once the seasonal indices have
// warmed up over a few seasons.
func TestForecastHoltWintersConverges(t *testing.T) {
	const (
		period    = 12
		mean      = 500.0
		amplitude = 200.0
		noise     = 5.0
	)
	series := seasonalSeries(7, 12*period, period, mean, amplitude, noise)
	f := New(Config{Alpha: 0.4, Beta: 0.05, Gamma: 0.4, SeasonLength: period})

	var absErr, n float64
	for i, v := range series {
		if i >= 8*period { // warmed up: score before observing
			p := predict(f, key, 1)
			absErr += math.Abs(p - v)
			n++
		}
		f.Observe(key, v)
		f.EndWindow()
	}
	mae := absErr / n
	// A level-only forecaster is off by ~the seasonal swing (mean
	// |Δsin| ≈ 2·amp·sin(π/period) ≈ 103 here); converged Holt-Winters
	// must track the seasonal shape down to a fraction of that.
	if mae > amplitude*0.15 {
		t.Fatalf("Holt-Winters MAE %.1f, want < %.1f (amplitude %.0f)", mae, amplitude*0.15, amplitude)
	}
}

// TestForecastEWMAEquivariance pins the affine equivariance of the
// EWMA model: forecasting a*x+b must equal a*forecast(x)+b for a > 0,
// b ≥ 0 (inputs and outputs stay in the non-negative clamp range).
func TestForecastEWMAEquivariance(t *testing.T) {
	rng := sim.NewRNG(11).DeriveNamed("forecast/equivariance")
	series := make([]float64, 64)
	for i := range series {
		series[i] = rng.Exp(100)
	}
	const a, b = 3.5, 40.0
	cfg := Config{Alpha: 0.3}
	base, scaled := New(cfg), New(cfg)
	for _, v := range series {
		base.Observe(key, v)
		scaled.Observe(key, a*v+b)
		want := a*predict(base, key, 1) + b
		got := predict(scaled, key, 1)
		if math.Abs(got-want) > 1e-9*math.Max(1, want) {
			t.Fatalf("EWMA not affine-equivariant: forecast(a*x+b) = %v, a*forecast(x)+b = %v", got, want)
		}
	}
}

// TestForecastDeterministicPerSeed replays the same seeded observation
// sequence into two forecasters and requires bit-identical forecasts
// at every step — the forecaster must be a pure function of its
// inputs. The CI determinism matrix re-runs this at GOMAXPROCS 1/2/8.
func TestForecastDeterministicPerSeed(t *testing.T) {
	series := seasonalSeries(42, 100, 10, 300, 120, 15)
	cfg := Config{Alpha: 0.5, Beta: 0.1, Gamma: 0.3, SeasonLength: 10}
	fa, fb := New(cfg), New(cfg)
	k2 := Key{Class: "batch", Cluster: "eu-west"}
	for i, v := range series {
		fa.Observe(key, v)
		fb.Observe(key, v)
		if i%3 == 0 {
			fa.Observe(k2, v/2)
			fb.Observe(k2, v/2)
		}
		fa.EndWindow()
		fb.EndWindow()
		for _, k := range []Key{key, k2} {
			for _, h := range []int{1, 2, 5} {
				pa, pb := predict(fa, k, h), predict(fb, k, h)
				if pa != pb { //slate:nolint floatcmp -- determinism pin: identical inputs must give bit-identical forecasts
					t.Fatalf("step %d key %v h %d: forecasts diverge: %v vs %v", i, k, h, pa, pb)
				}
			}
		}
	}
}

// TestForecastHoltTracksRamp checks the trend term: on a linear ramp
// the Holt forecast must overtake a trendless EWMA, which structurally
// lags any ramp.
func TestForecastHoltTracksRamp(t *testing.T) {
	holt := New(Config{Alpha: 0.5, Beta: 0.3})
	ewma := New(Config{Alpha: 0.5})
	var next float64
	for i := 0; i < 60; i++ {
		v := 100 + 10*float64(i)
		holt.Observe(key, v)
		ewma.Observe(key, v)
		next = v + 10
	}
	he := math.Abs(predict(holt, key, 1) - next)
	ee := math.Abs(predict(ewma, key, 1) - next)
	if he >= ee {
		t.Fatalf("Holt error %.2f not better than EWMA error %.2f on a ramp", he, ee)
	}
	if he > 1.0 {
		t.Fatalf("Holt error %.2f on a converged linear ramp, want < 1", he)
	}
}

// TestForecastSanitization pins the robustness contract directly:
// hostile observations never produce NaN/Inf/negative forecasts, and
// predict on an unknown key is 0.
func TestForecastSanitization(t *testing.T) {
	f := New(Config{Alpha: 0.5, Beta: 0.3, Gamma: 0.3, SeasonLength: 4})
	if got := predict(f, Key{Class: "nope"}, 1); got != 0 { //slate:nolint floatcmp -- unknown keys return the literal 0, exact by construction
		t.Fatalf("unknown key forecast = %v, want 0", got)
	}
	hostile := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -5, 1e308, 0, 42}
	for i := 0; i < 5; i++ {
		for _, v := range hostile {
			f.Observe(key, v)
			f.EndWindow()
			for _, h := range []int{1, 3} {
				p := predict(f, key, h)
				if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
					t.Fatalf("hostile input %v produced forecast %v", v, p)
				}
			}
		}
	}
}

// TestForecastZeroDecay checks EndWindow's implicit zero observation:
// a stream that vanishes must decay toward zero instead of freezing.
func TestForecastZeroDecay(t *testing.T) {
	f := New(Config{Alpha: 0.5})
	for i := 0; i < 10; i++ {
		f.Observe(key, 400)
		f.EndWindow()
	}
	for i := 0; i < 20; i++ {
		f.EndWindow() // key absent from the window
	}
	if p := predict(f, key, 1); p > 1 {
		t.Fatalf("vanished stream still forecasts %v after 20 silent windows", p)
	}
	if len(f.states) != 1 {
		t.Fatalf("tracks %d keys, want 1", len(f.states))
	}
}

// TestForecastEach checks Each visits every key exactly once with the
// same value predict returns.
func TestForecastEach(t *testing.T) {
	f := New(Defaults())
	keys := []Key{key, {Class: "batch", Cluster: "eu"}, {Class: "rt", Cluster: "ap"}}
	for i, k := range keys {
		f.Observe(k, float64(100*(i+1)))
	}
	f.EndWindow()
	seen := make(map[Key]float64)
	f.Each(1, func(k Key, p float64) { seen[k] = p })
	if len(seen) != len(keys) {
		t.Fatalf("Each visited %d keys, want %d", len(seen), len(keys))
	}
	for _, k := range keys {
		if seen[k] != predict(f, k, 1) { //slate:nolint floatcmp -- Each must report exactly what predict computes
			t.Fatalf("Each(%v) = %v, predict = %v", k, seen[k], predict(f, k, 1))
		}
	}
}

// TestForecastConfigNormalization pins the clamping of out-of-range
// smoothing weights.
func TestForecastConfigNormalization(t *testing.T) {
	c := Config{Alpha: -1, Beta: 2, Gamma: -3, SeasonLength: -4}.normalized()
	if c.Alpha != 0.5 || c.Beta != 0 || c.SeasonLength != 0 { //slate:nolint floatcmp -- clamped defaults are assigned literally, never computed
		t.Fatalf("normalized = %+v", c)
	}
	c = Config{Alpha: math.NaN(), SeasonLength: 8}.normalized()
	if c.Alpha != 0.5 || c.Gamma != 0.3 || c.SeasonLength != 8 { //slate:nolint floatcmp -- clamped defaults are assigned literally, never computed
		t.Fatalf("normalized seasonal = %+v", c)
	}
}
