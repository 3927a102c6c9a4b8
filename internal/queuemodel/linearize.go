package queuemodel

import "fmt"

// Segment is one piece of a convex piecewise-linear approximation of the
// aggregate delay function D(λ) = λ·W(λ), where W is the model's sojourn
// time. D is convex and increasing on [0, capacity), so the secant
// slopes of consecutive segments are nondecreasing — which lets the LP
// use the standard incremental formulation: split the flow λ across
// segment variables 0 ≤ λᵢ ≤ Widthᵢ with per-unit cost Slopeᵢ; because
// slopes increase, an optimal LP solution always fills cheaper segments
// first and the approximation is exact at the breakpoints.
type Segment struct {
	// Width is the amount of load (req/s) the segment can carry.
	Width float64
	// Slope is the marginal delay cost in seconds of aggregate latency
	// per unit of load (second·(req/s)⁻¹ of D, i.e. seconds of
	// request-seconds per request).
	Slope float64
}

// DefaultBreakFracs are the default utilization breakpoints for
// linearization. They concentrate resolution near saturation, where the
// latency curve bends hardest.
var DefaultBreakFracs = []float64{0.25, 0.5, 0.7, 0.8, 0.9, 0.95}

// MaxUtilization is the default cap on modeled utilization. Flows beyond
// this point are infeasible in the optimizer rather than priced: queueing
// formulas diverge at ρ→1 and no sane routing plan should hold a pool
// there (DESIGN.md "capacity guard").
const MaxUtilization = 0.95

// Linearize builds the convex PWL approximation of D(λ) = λ·W(λ) for the
// M/M/c model, with breakpoints at the given utilization fractions of
// capacity. Fractions must be strictly increasing in (0, 1); the last
// fraction is the utilization cap. If fracs is nil, DefaultBreakFracs is
// used.
func Linearize(m MMc, fracs []float64) ([]Segment, error) {
	if fracs == nil {
		fracs = DefaultBreakFracs
	}
	cap := m.Capacity()
	if cap <= 0 {
		return nil, fmt.Errorf("queuemodel: model has non-positive capacity %v", cap)
	}
	prevFrac := 0.0
	prevD := 0.0
	segs := make([]Segment, 0, len(fracs))
	for i, f := range fracs {
		if f <= prevFrac || f >= 1 {
			return nil, fmt.Errorf("queuemodel: break fraction %v at index %d not strictly increasing in (0,1)", f, i)
		}
		lambda := f * cap
		d := lambda * m.SojournSeconds(lambda)
		width := (f - prevFrac) * cap
		slope := (d - prevD) / width
		segs = append(segs, Segment{Width: width, Slope: slope})
		prevFrac, prevD = f, d
	}
	return segs, nil
}

// TotalWidth returns the summed capacity of the segments — the maximum
// load the linearized pool may carry.
func TotalWidth(segs []Segment) float64 {
	var w float64
	for _, s := range segs {
		w += s.Width
	}
	return w
}

// EvalPWL returns the PWL delay D̃(λ) implied by the segments, filling
// segments in order. Loads beyond the total width return +Inf slope
// extension (the last slope extended), which callers should treat as
// "infeasible" — the optimizer never produces such loads because segment
// variables are capacity-bounded.
func EvalPWL(segs []Segment, lambda float64) float64 {
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
