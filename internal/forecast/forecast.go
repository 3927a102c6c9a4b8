// Package forecast predicts near-future per-(class, cluster) demand
// from the stream of telemetry windows. The controller trusts the last
// window's demand exactly, so any swing between ticks lands on a stale
// table (ROADMAP item 2); a forecaster that extrapolates level, trend,
// and seasonality lets the control loop re-solve *before* the window
// that would have missed the swing.
//
// Three models share one update path, selected by Config:
//
//   - EWMA (Beta = 0, SeasonLength = 0): exponentially weighted level
//     only. Shift/scale-equivariant: forecasting a*x+b equals
//     a*forecast(x)+b (property-tested).
//   - Holt (Beta > 0): double exponential smoothing — level plus
//     linear trend, for ramps.
//   - Holt-Winters additive (SeasonLength > 0): triple exponential
//     smoothing with an additive seasonal index per window-of-season,
//     for diurnal demand.
//
// Determinism: a Forecaster is a pure function of its observation
// sequence — no clocks, no randomness, no goroutines — so forecasts
// are identical per seed and at any GOMAXPROCS (CI pins 1/2/8).
// Robustness: inputs are sanitized (NaN/Inf/negative observations
// clamp to the valid range) and predictions are clamped finite and
// non-negative, fuzzed by FuzzForecastIngest.
//
// The per-key observe and predict steps sit on the controller's hot
// path (one per telemetry key per tick): both are allocation-free after
// a key's first observation, pinned by AllocsPerRun and the hotalloc
// lint.
package forecast

import "math"

// maxRate clamps observations so repeated extreme inputs can never
// overflow the smoothing recurrences into Inf. 1e15 req/s is far
// beyond any meaningful telemetry rate.
const maxRate = 1e15

// Key identifies one demand stream: a traffic class arriving at a
// cluster.
type Key struct {
	Class   string
	Cluster string
}

// Config tunes the smoothing recurrences. The zero value is invalid;
// use Defaults() or fill the fields and let normalized() clamp them.
type Config struct {
	// Alpha is the level smoothing weight in (0, 1]; default 0.5
	// (matches the controller's default demand EWMA).
	Alpha float64
	// Beta is the trend smoothing weight in [0, 1); 0 disables the
	// trend term entirely (plain EWMA).
	Beta float64
	// Gamma is the seasonal smoothing weight in [0, 1); only used when
	// SeasonLength > 0. Default 0.3 when seasonal.
	Gamma float64
	// SeasonLength is the season period in telemetry windows; 0
	// disables seasonality. The first SeasonLength observations of a
	// key warm up its seasonal indices.
	SeasonLength int
}

// Defaults returns the trend-tracking configuration (EWMA level + Holt
// trend) that slate-global's -predictive passes as
// ControllerConfig.Forecast; the zero Config there means no forecaster.
func Defaults() Config {
	return Config{Alpha: 0.5, Beta: 0.3}
}

func (c Config) normalized() Config {
	if c.Alpha <= 0 || c.Alpha > 1 || math.IsNaN(c.Alpha) {
		c.Alpha = 0.5
	}
	if c.Beta < 0 || c.Beta >= 1 || math.IsNaN(c.Beta) {
		c.Beta = 0
	}
	if c.SeasonLength < 0 {
		c.SeasonLength = 0
	}
	if c.SeasonLength > 0 && (c.Gamma <= 0 || c.Gamma >= 1 || math.IsNaN(c.Gamma)) {
		c.Gamma = 0.3
	}
	return c
}

// state is one key's smoothing state.
type state struct {
	epoch  uint64 // last epoch Observe saw this key (EndWindow bookkeeping)
	n      int    // observations folded in so far
	last   float64
	level  float64
	trend  float64
	season []float64 // additive seasonal indices; raw values during warmup
}

// Forecaster holds per-key smoothing state. Not safe for concurrent
// use; the controller serializes ticks.
type Forecaster struct {
	cfg    Config
	epoch  uint64
	states map[Key]*state
}

// New returns a Forecaster with the given (normalized) configuration.
func New(cfg Config) *Forecaster {
	return &Forecaster{cfg: cfg.normalized(), states: make(map[Key]*state)}
}

// Observe folds one telemetry window's observed rate for a key into
// its smoothing state. NaN, Inf, and negative rates sanitize to the
// valid range rather than poisoning the recurrences.
//
//slate:hot
func (f *Forecaster) Observe(k Key, rate float64) {
	s := f.states[k]
	if s == nil {
		s = f.create(k)
	}
	s.observe(f.cfg, rate)
	s.epoch = f.epoch
}

// create allocates a new key's state — the once-per-key slow path off
// the per-tick Observe.
//
//slate:cold
func (f *Forecaster) create(k Key) *state {
	s := &state{}
	if f.cfg.SeasonLength > 0 {
		s.season = make([]float64, f.cfg.SeasonLength)
	}
	f.states[k] = s
	return s
}

// EndWindow closes the current telemetry window: every tracked key
// that was not observed this window receives an implicit zero
// observation, so forecasts for vanished streams decay toward zero
// instead of freezing at their last level. Call once per tick, after
// the window's Observe calls. The per-key updates are independent, so
// the map iteration order cannot affect any forecast.
func (f *Forecaster) EndWindow() {
	for _, s := range f.states {
		if s.epoch != f.epoch {
			s.observe(f.cfg, 0)
		}
	}
	f.epoch++
}

// Each calls fn for every tracked key with its h-windows-ahead
// forecast. Iteration order is unspecified: callers must fold the
// results into an order-independent structure (the controller builds
// a per-key demand map).
func (f *Forecaster) Each(h int, fn func(Key, float64)) {
	for k, s := range f.states {
		fn(k, s.predict(f.cfg, h))
	}
}

func sanitize(v float64) float64 {
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	if v > maxRate { // catches +Inf too
		return maxRate
	}
	return v
}

// observe folds one observation into the state. All updates are convex
// combinations of finite, clamped values, so level/trend/season stay
// finite by construction.
func (s *state) observe(cfg Config, v float64) {
	v = sanitize(v)
	s.last = v
	m := len(s.season)
	if m > 0 && s.n < m {
		// First season: stash raw values for index initialization while
		// the level tracks a plain EWMA so warmup predictions are usable.
		s.season[s.n] = v
		if s.n == 0 {
			s.level = v
		} else {
			s.level = cfg.Alpha*v + (1-cfg.Alpha)*s.level
		}
		s.n++
		if s.n == m {
			var mean float64
			for _, x := range s.season {
				mean += x
			}
			mean /= float64(m)
			for i := range s.season {
				s.season[i] -= mean
			}
			s.level = mean
			s.trend = 0
		}
		return
	}
	if s.n == 0 {
		s.level = v
		s.n++
		return
	}
	prev := s.level
	switch {
	case m > 0:
		si := s.n % m
		s.level = cfg.Alpha*(v-s.season[si]) + (1-cfg.Alpha)*(s.level+s.trend)
		s.trend = cfg.Beta*(s.level-prev) + (1-cfg.Beta)*s.trend
		s.season[si] = cfg.Gamma*(v-s.level) + (1-cfg.Gamma)*s.season[si]
	case cfg.Beta > 0:
		s.level = cfg.Alpha*v + (1-cfg.Alpha)*(s.level+s.trend)
		s.trend = cfg.Beta*(s.level-prev) + (1-cfg.Beta)*s.trend
	default:
		s.level = cfg.Alpha*v + (1-cfg.Alpha)*s.level
	}
	s.n++
}

// predict extrapolates h windows ahead: level + h·trend plus the
// seasonal index of the target window. The trend term can extrapolate
// below zero on a decaying series; demand cannot be negative, so the
// result clamps at 0. A non-finite intermediate (impossible from
// sanitized inputs, but cheap to guard) falls back to the last
// observation.
//
//slate:hot
func (s *state) predict(cfg Config, h int) float64 {
	if s == nil || s.n == 0 {
		return 0
	}
	if h < 1 {
		h = 1
	}
	p := s.level + float64(h)*s.trend
	if m := len(s.season); m > 0 && s.n >= m {
		// Windows 0..n-1 are observed; predict(h) targets window n+h-1.
		p += s.season[(s.n+h-1)%m]
	}
	if math.IsNaN(p) || math.IsInf(p, 0) {
		p = s.last
	}
	if p < 0 {
		p = 0
	}
	return p
}
