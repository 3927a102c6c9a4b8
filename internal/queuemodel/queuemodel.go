// Package queuemodel provides the load-to-latency models SLATE uses to
// predict service latency as a function of offered load (paper §3.3
// "Latency Modeling"): M/M/c queueing formulas, model fitting from
// telemetry samples, and the convex piecewise linearization that turns
// the nonlinear latency objective into a linear program.
package queuemodel

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// MMc is an M/M/c queue: Poisson arrivals, exponential service times,
// c parallel servers. SLATE models each (service, cluster) replica pool
// as one M/M/c queue whose c is replicas × per-replica concurrency.
type MMc struct {
	// Servers is the number of parallel servers (c ≥ 1).
	Servers int
	// Mu is the per-server service rate in requests/second (1 / mean
	// service time).
	Mu float64
}

// NewMMc builds an M/M/c model from a server count and a mean service
// time.
func NewMMc(servers int, meanServiceTime time.Duration) MMc {
	if servers < 1 {
		servers = 1
	}
	mu := math.Inf(1)
	if meanServiceTime > 0 {
		mu = 1 / meanServiceTime.Seconds()
	}
	return MMc{Servers: servers, Mu: mu}
}

// Capacity returns c·μ, the saturation throughput.
func (m MMc) Capacity() float64 { return float64(m.Servers) * m.Mu }

// ErlangC returns the probability an arriving request must wait (all c
// servers busy), computed with the numerically stable iterative form of
// the Erlang C formula.
func (m MMc) ErlangC(lambda float64) float64 {
	c := m.Servers
	a := lambda / m.Mu // offered load in Erlangs
	if a <= 0 {
		return 0
	}
	rho := a / float64(c)
	if rho >= 1 {
		return 1
	}
	// Iteratively compute the Erlang B blocking probability, then
	// convert to Erlang C. B(0, a) = 1; B(k, a) = a·B(k-1)/(k + a·B(k-1)).
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	return b / (1 - rho*(1-b))
}

// WaitSeconds returns the expected queueing delay (excluding service) in
// seconds: Wq = C(c, a) / (cμ − λ).
func (m MMc) WaitSeconds(lambda float64) float64 {
	if lambda <= 0 {
		return 0
	}
	if lambda >= m.Capacity() {
		return math.Inf(1)
	}
	return m.ErlangC(lambda) / (m.Capacity() - lambda)
}

// SojournSeconds returns the expected total time at the queue in
// seconds: W = Wq + 1/μ. The optimizer's linearization reads this
// rather than Sojourn, for want of the nanosecond truncation.
func (m MMc) SojournSeconds(lambda float64) float64 {
	w := m.WaitSeconds(lambda)
	if math.IsInf(w, 1) {
		return w
	}
	return w + 1/m.Mu
}

// Sojourn returns the expected time a request spends at the pool
// (queueing wait plus service) when load is lambda requests/second.
// Loads at or beyond capacity saturate at the largest Duration.
func (m MMc) Sojourn(lambda float64) time.Duration {
	return secondsToDuration(m.SojournSeconds(lambda))
}

func secondsToDuration(s float64) time.Duration {
	if math.IsInf(s, 1) || s > math.MaxInt64/2e9 {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(s * float64(time.Second))
}

// Sample is one telemetry observation: measured mean latency at a
// measured offered load.
type Sample struct {
	Lambda  float64       // requests/second
	Latency time.Duration // observed mean sojourn time
}

// ErrInsufficientData is returned when fitting is attempted with too few
// or degenerate samples.
var ErrInsufficientData = errors.New("queuemodel: insufficient samples to fit model")

// FitMMc estimates the per-server service rate μ of an M/M/c model with
// a known server count from (load, latency) telemetry samples, by
// minimizing the sum of squared relative latency errors with a golden-
// section search. This is how SLATE learns latency profiles dynamically
// in production rather than profiling offline (§5).
func FitMMc(servers int, samples []Sample) (MMc, error) {
	if servers < 1 {
		return MMc{}, fmt.Errorf("queuemodel: servers must be >= 1, got %d", servers)
	}
	var clean []Sample
	var maxLambda float64
	for _, s := range samples {
		if s.Lambda < 0 || s.Latency <= 0 {
			continue
		}
		clean = append(clean, s)
		if s.Lambda > maxLambda {
			maxLambda = s.Lambda
		}
	}
	if len(clean) == 0 {
		return MMc{}, ErrInsufficientData
	}
	// μ must exceed maxLambda/c for every sample to be feasible. The
	// lightest-load sample bounds μ from above: W >= 1/μ always, so
	// μ >= 1/W_min... actually μ <= 1/min(W) can be violated by noise;
	// use a generous bracket instead.
	minLat := math.Inf(1)
	for _, s := range clean {
		if l := s.Latency.Seconds(); l < minLat {
			minLat = l
		}
	}
	lo := maxLambda/float64(servers) + 1e-9 // just feasible
	hi := 10 / minLat                       // far above any plausible service rate
	if hi <= lo {
		hi = lo * 10
	}
	obj := func(mu float64) float64 {
		m := MMc{Servers: servers, Mu: mu}
		var sse float64
		for _, s := range clean {
			pred := m.SojournSeconds(s.Lambda)
			obs := s.Latency.Seconds()
			if math.IsInf(pred, 1) {
				return math.Inf(1)
			}
			rel := (pred - obs) / obs
			sse += rel * rel
		}
		return sse
	}
	mu := goldenSection(obj, lo, hi, 1e-10)
	m := MMc{Servers: servers, Mu: mu}
	if math.IsInf(obj(mu), 1) || mu <= 0 {
		return MMc{}, ErrInsufficientData
	}
	return m, nil
}

// goldenSection minimizes a unimodal function on [lo, hi].
func goldenSection(f func(float64) float64, lo, hi, tol float64) float64 {
	const phi = 0.6180339887498949
	a, b := lo, hi
	c := b - phi*(b-a)
	d := a + phi*(b-a)
	fc, fd := f(c), f(d)
	for i := 0; i < 200 && (b-a) > tol*(1+math.Abs(a)); i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - phi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + phi*(b-a)
			fd = f(d)
		}
	}
	return (a + b) / 2
}
