package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// sortedCopy returns the samples in ascending order.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile of ascending samples by linear
// interpolation between order statistics; 0 for no samples.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// minTailSamples is how many samples must lie beyond a reported tail
// percentile for it to be more than an anecdote.
const minTailSamples = 10

// maxTailPercentile caps the gated tail. Above p90 the run-to-run
// spread on a shared two-core box is wider than any usable bound (p99 of
// the request path ranged 5–100 ms between identical runs), so higher
// percentiles are per-layer metrics, not gates.
const maxTailPercentile = 90

// tailValue returns the highest order statistic, up to
// maxTailPercentile, that still has at least minTailSamples samples
// beyond it, and the percentile it stands for. With fewer than
// 2×minTailSamples samples no percentile above the median qualifies, and
// the median is returned.
func tailValue(sorted []float64) (value, percentile float64) {
	n := len(sorted)
	if n < 2*minTailSamples {
		return quantile(sorted, 0.5), 50
	}
	i := min(n-minTailSamples-1, n*maxTailPercentile/100-1)
	return sorted[i], 100 * float64(i+1) / float64(n)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// mallocs is the cumulative count of heap objects allocated.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// nsPerOp times n back-to-back calls of fn and returns the mean cost of
// one.
func nsPerOp(fn func(), n int) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// fastSide returns the quartile of the slice values on the fast side:
// the third for a rate, the first for a time or a cost. The box is shared
// and its neighbours only ever slow a slice down; the slices they leave
// alone sit at a floor that repeats from run to run (ctrl-churn over 16
// runs: first quartile of the ticks within 6 %, their median 14 %), so
// the fast quartile estimates the undisturbed system where the median
// estimates the neighbours. Where a slow spell outlasts a whole run it
// changes nothing.
func fastSide(v []float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		return quantile(sortedCopy(v), 0.75)
	}
	return quantile(sortedCopy(v), 0.25)
}

// opSample is one operation: how long it took and the process CPU time
// spent while it ran.
type opSample struct{ ms, cpuUS float64 }

// bySlice folds consecutive operations into slices of n and returns, per
// slice, the median operation time, the operations completed per second
// of operation time, and the CPU time per operation. A trailing partial
// slice is dropped unless it is the only one.
func bySlice(ops []opSample, n int) (p50s, rates, cpus []float64) {
	for i := 0; i < len(ops); i += n {
		j := i + n
		if j > len(ops) {
			if i > 0 {
				break
			}
			j = len(ops)
		}
		var times []float64
		var sum, cpu float64
		for _, o := range ops[i:j] {
			times = append(times, o.ms)
			sum += o.ms
			cpu += o.cpuUS
		}
		p50s = append(p50s, median(times))
		rates = append(rates, float64(j-i)/(sum/1e3))
		cpus = append(cpus, cpu/float64(j-i))
	}
	return p50s, rates, cpus
}

// settle finishes the garbage collection of whatever ran before, so that
// a measured phase does not pay for marking its predecessor's heap.
func settle() { runtime.GC() }

// setUpRepeatedly runs start n times, stopping every instance but the
// last, and returns the last instance with the median set-up time in
// seconds. The first set-up is timed from process start, so that it
// covers what the user waits for; repeating it makes set-up time a
// steady metric, and work moved into set-up shows.
func setUpRepeatedly[T any](n int, start func() (T, error), stop func(T)) (last T, seconds float64, err error) {
	var times []float64
	for k := 0; k < n; k++ {
		if k > 0 {
			stop(last)
		}
		t0 := time.Now()
		if k == 0 {
			t0 = processStart
		}
		if last, err = start(); err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return last, median(times), nil
}
