package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"
)

// ctrlWindow is the telemetry window every report covers.
const ctrlWindow = time.Second

// ctrlSetups is how many times the control plane is built and brought
// to its first published table; setup_s is the median.
const ctrlSetups = 3

// demandPattern produces the per-key load factor of tick k.
//
// Every key jitters ±1 % from the seeded stream: far above the
// delta-report epsilon, so reports are full-size, and below the
// controller's SkipEpsilon (2 %), so on its own it dirties no shard.
// That is all of ctrl-steady. ctrl-churn also runs alternate classes at
// ×1.15 / ×0.9 with the parity flipping every tick, so every shard's
// demand moves by ~25 % and every shard re-solves.
type demandPattern struct {
	churn bool
	jit   rng
}

func (p demandPattern) factor(tick int) func(classOrd int) float64 {
	return func(classOrd int) float64 {
		f := 1 + 0.01*(2*p.jit.Float64()-1)
		switch {
		case !p.churn:
		case (classOrd+tick)%2 == 0:
			f *= 1.15
		default:
			f *= 0.9
		}
		return f
	}
}

// ctrlLoop is one live control plane under the harness's tick driver.
type ctrlLoop struct {
	rig     *ctrlRig
	lb      *loopback
	pattern demandPattern
	tickNo  int
	cancel  context.CancelFunc
}

func (l *ctrlLoop) close() {
	l.cancel()
	l.lb.close()
}

// windows builds every cluster's window for the next tick.
func (l *ctrlLoop) windows() [][]windowStats {
	f := l.pattern.factor(l.tickNo)
	l.tickNo++
	out := make([][]windowStats, l.rig.nClusters())
	for i := range out {
		out[i] = l.rig.window(i, f)
	}
	return out
}

// tick drives one control round the way the daemons' timers would:
// every cluster controller reports its window, then the global
// controller ticks. The sample's time is the time to effect: first
// report starts → Global.Tick has returned with the rules pushed; its
// CPU time covers the same interval, not the check that follows.
func (l *ctrlLoop) tick(tr *tracer, op int, windows [][]windowStats) (opSample, error) {
	for i, w := range windows {
		l.rig.ingest(i, w)
	}
	c0 := cpuTime()
	start := time.Now()
	root := tr.begin("ctrl.time_to_effect", op, 0)
	sp := tr.begin("controlplane.report", op, root)
	for i := range windows {
		if err := l.rig.report(i); err != nil {
			return opSample{}, err
		}
	}
	tr.end(sp)
	sp = tr.begin("controlplane.tick", op, root)
	err := l.rig.tick()
	tr.end(sp)
	tr.end(root)
	if err != nil {
		return opSample{}, err
	}
	sample := opSample{ms(time.Since(start)), us(cpuTime() - c0)}
	return sample, l.rig.checkEffect(start)
}

// startCtrl builds the control plane and runs the cold first tick plus
// the warm-up ticks; everything up to the first measured tick is set-up.
func startCtrl(cfg runConfig, churn bool) (*ctrlLoop, error) {
	ctx, cancel := context.WithCancel(context.Background())
	lb := &loopback{}
	rig, err := newCtrlRig(ctx, cfg.size, lb.serve)
	if err != nil {
		cancel()
		lb.close()
		return nil, err
	}
	l := &ctrlLoop{rig: rig, lb: lb, cancel: cancel,
		pattern: demandPattern{churn: churn, jit: newRNG(cfg.seed, "ctrl/jitter")}}
	warm := 10
	if churn {
		warm = 3
	}
	for k := 0; k <= warm; k++ {
		if _, err := l.tick(nil, 0, l.windows()); err != nil {
			l.close()
			return nil, fmt.Errorf("set-up tick %d: %w", k, err)
		}
	}
	return l, nil
}

// tickGate checks the per-tick optimizer counts against what the
// workload is built to cause.
func tickGate(out *outcome, churn bool, d optimizerCounts) {
	switch {
	case churn && d.skipped != 0:
		out.problem("ctrl-churn tick skipped %d of %d shards; every shard must be dirty", d.skipped, d.shards)
	case !churn && d.subSolves != 0:
		out.problem("ctrl-steady tick solved %d shards; every shard must skip", d.subSolves)
	}
}

func (a optimizerCounts) sub(b optimizerCounts) optimizerCounts {
	return optimizerCounts{a.subSolves - b.subSolves, a.skipped - b.skipped, a.warm - b.warm,
		a.cold - b.cold, a.searchWins - b.searchWins, a.shards}
}

func runCtrl(cfg runConfig, churn bool) (*outcome, error) {
	out := newOutcome()
	loop, setup, err := setUpRepeatedly(ctrlSetups,
		func() (*ctrlLoop, error) { return startCtrl(cfg, churn) }, (*ctrlLoop).close)
	if err != nil {
		return nil, err
	}
	defer loop.close()
	out.set("setup_s", setup)

	if cfg.trace {
		return out, traceCtrl(cfg, churn, loop, out)
	}

	var ops []opSample
	wire0 := loop.lb.bodyBytes()
	settle()
	m0 := mallocs()
	for begin := time.Now(); time.Since(begin) < cfg.seconds || len(ops) < 2; {
		before := loop.rig.counts()
		sample, err := loop.tick(nil, 0, loop.windows())
		out.attempted++
		if err != nil {
			out.failed++
			out.problem("tick %d: %v", out.attempted, err)
			continue
		}
		ops = append(ops, sample)
		tickGate(out, churn, loop.rig.counts().sub(before))
	}
	allocs := mallocs() - m0
	if len(ops) == 0 {
		return nil, fmt.Errorf("no tick succeeded: %v", out.problems)
	}
	n := float64(out.attempted)
	p50s, rates, cpus := bySlice(ops, ctrlSliceTicks(churn))
	var ttes []float64
	for _, o := range ops {
		ttes = append(ttes, o.ms)
	}
	tail, pct := tailValue(sortedCopy(ttes))
	out.set("op_ms", fastSide(p50s, false))
	out.set("ops_per_s", fastSide(rates, true))
	out.set("cpu_us_per_op", fastSide(cpus, false))
	out.set("allocs_per_op", float64(allocs)/n)
	out.set("peak_rss_mb", peakRSSMB())
	out.note("%d ticks over %d clusters in %d slices; time to effect p%.0f over the whole run %.3f ms; wire %.3f kB/tick",
		len(ops), loop.rig.nClusters(), len(p50s), pct, tail, float64(loop.lb.bodyBytes()-wire0)/1e3/n)
	return out, nil
}

// ctrlSliceTicks is how many ticks make one slice: a churn tick is long
// enough (~0.17 s) to be a slice of its own, steady ticks (~9 ms) are
// taken forty at a time.
func ctrlSliceTicks(churn bool) int {
	if churn {
		return 1
	}
	return 40
}

// traceCtrl is the traced run: an untraced stretch for the overhead
// baseline, then traced live ticks with the same tick replayed step by
// step on a twin (same windows, so the layer table and the time to
// effect come from identical inputs).
func traceCtrl(cfg runConfig, churn bool, loop *ctrlLoop, out *outcome) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	twin, err := newStagedTwin(ctx, cfg.size)
	if err != nil {
		return err
	}
	tr := newTracer()
	// Bring the twin to the live controller's state: replay the set-up
	// ticks' windows through it (the pattern is a pure function of the
	// seed and the tick number).
	replay := &ctrlLoop{rig: loop.rig, pattern: demandPattern{churn: churn, jit: newRNG(cfg.seed, "ctrl/jitter")}}
	for k := 0; k < loop.tickNo; k++ {
		err := twin.tick(nil, 0, replay.windows())
		if err == nil {
			err = twin.probes(nil, 0)
		}
		if err != nil {
			return fmt.Errorf("twin set-up tick %d: %w", k, err)
		}
	}

	// Untraced stretch: live ticks alone, nothing else running, as the
	// baseline the traced ticks are compared with. The twin catches up on
	// the same windows afterwards.
	var plain, traced []float64
	var held [][][]windowStats
	budget := cfg.seconds
	settle()
	start := time.Now()
	for time.Since(start) < budget/5 || len(plain) < 2 {
		w := loop.windows()
		sample, err := loop.tick(nil, 0, w)
		if err != nil {
			return fmt.Errorf("untraced stretch: %w", err)
		}
		plain = append(plain, sample.ms)
		held = append(held, w)
	}
	for _, w := range held {
		err := twin.tick(nil, 0, w)
		if err == nil {
			err = twin.probes(nil, 0)
		}
		if err != nil {
			return fmt.Errorf("twin catch-up: %w", err)
		}
	}
	settle()

	first := loop.rig.counts()
	wire0 := loop.lb.bodyBytes()
	start = time.Now()
	for op := 1; time.Since(start) < budget*4/5 || len(traced) < 2; op++ {
		w := loop.windows()
		before := loop.rig.counts()
		sample, err := loop.tick(tr, op, w)
		out.attempted++
		if err != nil {
			out.failed++
			out.problem("traced tick %d: %v", op, err)
			continue
		}
		traced = append(traced, sample.ms)
		tickGate(out, churn, loop.rig.counts().sub(before))
		if err := twin.tick(tr, op, w); err != nil {
			return err
		}
		if err := loop.rig.sameTable(twin.rig); err != nil {
			out.problem("traced tick %d: %v", op, err)
		}
		if err := twin.probes(tr, op); err != nil {
			return err
		}
	}
	if len(traced) == 0 {
		return fmt.Errorf("no traced tick succeeded: %v", out.problems)
	}
	n := float64(len(traced))
	sums := loop.rig.counts().sub(first)

	layer := func(metric, span string) float64 {
		v := mean(tr.perOpMS(span))
		out.set(metric, v)
		return v
	}
	staged := 0.0
	for _, m := range []struct{ metric, span string }{
		{"controlplane.collect_ms", "controlplane.collect"},
		{"telemetry.delta_ms", "telemetry.delta"},
		{"controlplane.ingest_ms", "controlplane.ingest"},
		{"telemetry.merge_ms", "telemetry.merge"},
		{"core.tick_ms", "core.tick"},
		{"routing.restrict_ms", "routing.restrict"},
		{"routing.makepatch_ms", "routing.makepatch"},
		{"routing.patch_encode_ms", "routing.patch_encode"},
		{"controlplane.apply_ms", "controlplane.apply"},
	} {
		staged += layer(m.metric, m.span)
	}
	layer("controlplane.report_ms", "controlplane.report")
	layer("controlplane.tick_ms", "controlplane.tick")
	layer("search.reoptimize_ms", "search.reoptimize")
	optimize := layer("core.optimize_ms", "core.optimize")
	out.set("core.estimate_ms", max(out.values["core.tick_ms"]-optimize, 0))
	out.set("telemetry.flush_us", 1e3*mean(tr.perOpMS("telemetry.flush")))
	out.set("routing.patch_bytes", tr.counts["routing.patch_bytes"]/n)
	out.set("controlplane.wire_kb_per_tick", float64(loop.lb.bodyBytes()-wire0)/1e3/float64(out.attempted))
	out.set("core.subsolves", float64(sums.subSolves)/n)
	out.set("core.skipped", float64(sums.skipped)/n)
	if total := sums.subSolves + sums.skipped; total > 0 {
		out.set("core.skip_ratio", float64(sums.skipped)/float64(total))
	}
	out.set("core.warm_solves", float64(sums.warm)/n)
	out.set("core.cold_solves", float64(sums.cold)/n)
	out.set("core.search_wins", float64(sums.searchWins)/n)

	tte := mean(traced)
	out.set("ctrl.unattributed_ratio", (tte-staged)/tte)
	tail, _ := tailValue(sortedCopy(traced))
	out.set("trace.op_ms", median(traced))
	out.set("trace.op_tail_ms", tail)
	out.set("trace.overhead_ratio", median(traced)/median(plain))

	out.set("dataplane.settable_us", nsPerOp(twin.setTableProbe(), 200000)/1e3)
	out.note("%d traced ticks (%d untraced before them); staged layers sum to %.3f ms of %.3f ms time to effect",
		len(traced), len(plain), staged, tte)
	return tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".jsonl"))
}
