package queuemodel

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestMM1MatchesClosedForm(t *testing.T) {
	// For c=1, ErlangC reduces to rho and the sojourn time to 1/(mu-lambda).
	m := NewMMc(1, 10*time.Millisecond) // mu = 100/s
	for _, lambda := range []float64{0, 10, 50, 90, 99} {
		want := 1.0 / (100 - lambda)
		got := m.SojournSeconds(lambda)
		if math.Abs(got-want) > 1e-12*want {
			t.Errorf("W(%v) = %v, want %v", lambda, got, want)
		}
	}
}

func TestPoolingReducesWaitProbability(t *testing.T) {
	// At equal utilization and equal total capacity, a pooled M/M/4 has a
	// lower probability of waiting than M/M/1 (statistical multiplexing).
	m1 := MMc{Servers: 1, Mu: 400}
	m4 := MMc{Servers: 4, Mu: 100}
	lambda := 300.0 // rho = 0.75 for both
	if c1, c4 := m1.ErlangC(lambda), m4.ErlangC(lambda); c4 >= c1 {
		t.Errorf("ErlangC: c=4 gives %v, want less than c=1's %v", c4, c1)
	}
}

func TestErlangCBounds(t *testing.T) {
	m := MMc{Servers: 8, Mu: 50}
	for _, lambda := range []float64{0, 1, 100, 200, 300, 390} {
		c := m.ErlangC(lambda)
		if c < 0 || c > 1 {
			t.Errorf("ErlangC(%v) = %v out of [0,1]", lambda, c)
		}
	}
	if !almostEqual(m.ErlangC(0), 0) {
		t.Error("ErlangC(0) != 0")
	}
	if !almostEqual(m.ErlangC(m.Capacity()), 1) {
		t.Error("ErlangC at capacity != 1")
	}
}

func TestSojournMonotoneInLoad(t *testing.T) {
	m := MMc{Servers: 8, Mu: 50}
	prev := 0.0
	for lambda := 0.0; lambda < m.Capacity(); lambda += 5 {
		w := m.SojournSeconds(lambda)
		if w < prev {
			t.Fatalf("sojourn decreased at lambda=%v: %v < %v", lambda, w, prev)
		}
		prev = w
	}
}

func TestSojournAtOrBeyondCapacity(t *testing.T) {
	m := MMc{Servers: 2, Mu: 100}
	if !math.IsInf(m.SojournSeconds(200), 1) {
		t.Error("sojourn at capacity should be +Inf")
	}
	if !math.IsInf(m.SojournSeconds(250), 1) {
		t.Error("sojourn beyond capacity should be +Inf")
	}
	if m.Sojourn(250) != time.Duration(math.MaxInt64) {
		t.Error("Sojourn duration beyond capacity should saturate at MaxInt64")
	}
}

func TestFitMMcRecoversTrueModel(t *testing.T) {
	// Generate noiseless samples from a known model; the fit must recover
	// mu closely.
	truth := MMc{Servers: 8, Mu: 125} // 8ms service time
	var samples []Sample
	for _, rho := range []float64{0.1, 0.3, 0.5, 0.7, 0.85} {
		lambda := rho * truth.Capacity()
		samples = append(samples, Sample{
			Lambda:  lambda,
			Latency: time.Duration(truth.SojournSeconds(lambda) * float64(time.Second)),
		})
	}
	got, err := FitMMc(8, samples)
	if err != nil {
		t.Fatalf("FitMMc: %v", err)
	}
	if math.Abs(got.Mu-truth.Mu) > 0.01*truth.Mu {
		t.Errorf("fitted mu = %v, want ~%v", got.Mu, truth.Mu)
	}
}

func TestFitMMcWithNoise(t *testing.T) {
	truth := MMc{Servers: 4, Mu: 200}
	noise := []float64{1.05, 0.97, 1.02, 0.95, 1.04, 0.99}
	var samples []Sample
	for i, rho := range []float64{0.1, 0.25, 0.4, 0.55, 0.7, 0.85} {
		lambda := rho * truth.Capacity()
		w := truth.SojournSeconds(lambda) * noise[i]
		samples = append(samples, Sample{Lambda: lambda, Latency: time.Duration(w * float64(time.Second))})
	}
	got, err := FitMMc(4, samples)
	if err != nil {
		t.Fatalf("FitMMc: %v", err)
	}
	if math.Abs(got.Mu-truth.Mu) > 0.10*truth.Mu {
		t.Errorf("fitted mu = %v, want within 10%% of %v", got.Mu, truth.Mu)
	}
}

func TestFitMMcErrors(t *testing.T) {
	if _, err := FitMMc(0, []Sample{{Lambda: 1, Latency: time.Millisecond}}); err == nil {
		t.Error("servers=0 should error")
	}
	if _, err := FitMMc(2, nil); err == nil {
		t.Error("no samples should error")
	}
	// All-degenerate samples.
	if _, err := FitMMc(2, []Sample{{Lambda: -1, Latency: time.Millisecond}, {Lambda: 5, Latency: 0}}); err == nil {
		t.Error("degenerate samples should error")
	}
}

func TestLinearizeConvexity(t *testing.T) {
	m := MMc{Servers: 8, Mu: 100}
	segs, err := Linearize(m, nil)
	if err != nil {
		t.Fatalf("Linearize: %v", err)
	}
	if len(segs) != len(DefaultBreakFracs) {
		t.Fatalf("segments = %d, want %d", len(segs), len(DefaultBreakFracs))
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].Slope < segs[i-1].Slope {
			t.Errorf("slopes not nondecreasing: seg %d slope %v < seg %d slope %v",
				i, segs[i].Slope, i-1, segs[i-1].Slope)
		}
	}
	wantWidth := 0.95 * m.Capacity()
	if got := TotalWidth(segs); math.Abs(got-wantWidth) > 1e-9 {
		t.Errorf("total width = %v, want %v", got, wantWidth)
	}
}

func TestLinearizeExactAtBreakpoints(t *testing.T) {
	m := MMc{Servers: 4, Mu: 250}
	segs, err := Linearize(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range DefaultBreakFracs {
		lambda := f * m.Capacity()
		want := lambda * m.SojournSeconds(lambda)
		got := evalPWL(segs, lambda)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Errorf("PWL at breakpoint rho=%v: %v, want %v", f, got, want)
		}
	}
}

func TestLinearizeOverestimatesBetweenBreakpoints(t *testing.T) {
	// The secant PWL of a convex function is an upper bound between
	// breakpoints (never flatters latency).
	m := MMc{Servers: 2, Mu: 500}
	segs, err := Linearize(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	for rho := 0.05; rho < 0.95; rho += 0.033 {
		lambda := rho * m.Capacity()
		exact := lambda * m.SojournSeconds(lambda)
		pwl := evalPWL(segs, lambda)
		if pwl < exact-1e-9 {
			t.Errorf("PWL underestimates at rho=%.2f: %v < %v", rho, pwl, exact)
		}
	}
}

func TestLinearizeValidation(t *testing.T) {
	m := MMc{Servers: 1, Mu: 100}
	if _, err := Linearize(m, []float64{0.5, 0.4}); err == nil {
		t.Error("non-increasing fracs should error")
	}
	if _, err := Linearize(m, []float64{0.5, 1.0}); err == nil {
		t.Error("frac >= 1 should error")
	}
	if _, err := Linearize(m, []float64{0}); err == nil {
		t.Error("frac 0 should error")
	}
	if _, err := Linearize(MMc{Servers: 1, Mu: 0}, nil); err == nil {
		t.Error("zero-capacity model should error")
	}
}

func TestFitMMcPropertyRoundTrip(t *testing.T) {
	// Property: for random true models, fitting noiseless samples drawn
	// from the model recovers capacity within 2%.
	f := func(servers8 uint8, muScaled uint16) bool {
		servers := int(servers8)%16 + 1
		mu := 20 + float64(muScaled%500)
		truth := MMc{Servers: servers, Mu: mu}
		var samples []Sample
		for _, rho := range []float64{0.2, 0.5, 0.8} {
			lambda := rho * truth.Capacity()
			samples = append(samples, Sample{
				Lambda:  lambda,
				Latency: time.Duration(truth.SojournSeconds(lambda) * float64(time.Second)),
			})
		}
		got, err := FitMMc(servers, samples)
		if err != nil {
			return false
		}
		return math.Abs(got.Capacity()-truth.Capacity()) <= 0.02*truth.Capacity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// evalPWL returns the PWL delay D̃(λ) implied by the segments, filling
// segments in order; loads beyond the total width extend the last slope.
func evalPWL(segs []Segment, lambda float64) float64 {
	var d float64
	remaining := lambda
	for _, s := range segs {
		take := remaining
		if take > s.Width {
			take = s.Width
		}
		d += take * s.Slope
		remaining -= take
		if remaining <= 0 {
			return d
		}
	}
	if remaining > 0 && len(segs) > 0 {
		d += remaining * segs[len(segs)-1].Slope
	}
	return d
}
