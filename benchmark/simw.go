package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// simSetups is how many times the scenario is generated and the serial
// engine warmed with one discarded run; setup_s is the median.
const simSetups = 5

// simShards is the parallel engine's shard count in the traced run: one
// per core of the reference box.
const simShards = 2

// warmSim is one set-up: the generated scenario and the result of the
// discarded first run, the reference every later run must reproduce.
type warmSim struct {
	rig *simRig
	ref simResult
}

func startSim(cfg runConfig) (warmSim, error) {
	rig, err := newSimRig(cfg.seed, cfg.size)
	if err != nil {
		return warmSim{}, err
	}
	ref, _, err := rig.run(simOpts{})
	return warmSim{rig, ref}, err
}

// timedRun runs the scenario once and returns its result and wall time.
func timedRun(rig *simRig, o simOpts) (simResult, uint64, time.Duration, error) {
	start := time.Now()
	res, spans, err := rig.run(o)
	return res, spans, time.Since(start), err
}

func runSim(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	warm, setup, err := setUpRepeatedly(simSetups,
		func() (warmSim, error) { return startSim(cfg) }, func(warmSim) {})
	if err != nil {
		return nil, err
	}
	rig, ref := warm.rig, warm.ref
	out.set("setup_s", setup)
	if ref.generated == 0 || ref.completed == 0 {
		return nil, fmt.Errorf("scenario generated %d requests and completed %d", ref.generated, ref.completed)
	}
	if cfg.trace {
		return out, traceSim(cfg, rig, ref, out)
	}

	var walls, rates, cpus []float64
	settle()
	m0 := mallocs()
	begin := time.Now()
	for time.Since(begin) < cfg.seconds || len(walls) < 2 {
		c0 := cpuTime()
		res, _, wall, err := timedRun(rig, simOpts{})
		cpu := cpuTime() - c0
		out.attempted++
		switch {
		case err != nil:
			out.failed++
			out.problem("run %d: %v", out.attempted, err)
			continue
		case res.fingerprint != ref.fingerprint:
			out.failed++
			out.problem("run %d: result fingerprint %x differs from the first run's %x", out.attempted, res.fingerprint, ref.fingerprint)
			continue
		}
		walls = append(walls, ms(wall))
		rates = append(rates, float64(res.generated)/wall.Seconds())
		cpus = append(cpus, us(cpu)/float64(res.generated))
	}
	allocs := mallocs() - m0
	if len(walls) == 0 {
		return nil, fmt.Errorf("no run succeeded: %v", out.problems)
	}
	out.set("op_ms", fastSide(walls, false))
	out.set("ops_per_s", fastSide(rates, true))
	out.set("cpu_us_per_op", fastSide(cpus, false))
	out.set("allocs_per_op", float64(allocs)/float64(uint64(out.attempted)*ref.generated))
	out.set("peak_rss_mb", peakRSSMB())
	out.note("%d serial-engine runs of %d request trees each (%v virtual)", len(walls), ref.generated, rig.virtual())
	return out, nil
}

// traceSim is the traced run: the serial engine plain, with the harness
// span sink, and with the policy decorator; the 2-shard engine; a bare
// kernel replaying the same number of events; and the generators.
func traceSim(cfg runConfig, rig *simRig, ref simResult, out *outcome) error {
	tr := newTracer()
	gen := nsPerOp(func() { newSimRig(cfg.seed, cfg.size) }, 3) / 1e6
	out.set("scenario.generate_ms", gen)
	var arrivals int
	arr := nsPerOp(func() { arrivals = rig.arrivals() }, 3) / 1e6
	out.set("workload.arrivals_ms", arr)
	if uint64(arrivals) != ref.generated {
		out.problem("workload.Arrivals yields %d arrivals, the engine generated %d", arrivals, ref.generated)
	}

	var plain, sunk, policy, par []float64
	var parRes simResult
	var spans, bytes uint64
	check := func(what string, res simResult, want uint64) {
		out.attempted++
		if res.fingerprint != want {
			out.failed++
			out.problem("%s: result fingerprint %x differs from that engine's first run %x", what, res.fingerprint, want)
		}
	}
	begin := time.Now()
	for op := 1; time.Since(begin) < cfg.seconds || op <= 2; op++ {
		var ms0 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		sp := tr.begin("simrun.run", op, 0)
		res, _, wall, err := timedRun(rig, simOpts{})
		tr.end(sp)
		if err != nil {
			return err
		}
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		bytes = ms1.TotalAlloc - ms0.TotalAlloc
		check("serial", res, ref.fingerprint)
		plain = append(plain, ms(wall))

		sp = tr.begin("simrun.run+spans", op, 0)
		res, n, wall, err := timedRun(rig, simOpts{spans: true})
		tr.end(sp)
		if err != nil {
			return err
		}
		check("serial with span sink", res, ref.fingerprint)
		sunk, spans = append(sunk, ms(wall)), n

		sp = tr.begin("simrun.run+policy", op, 0)
		res, _, _, err = timedRun(rig, simOpts{tr: tr, op: op, parent: sp})
		tr.end(sp)
		if err != nil {
			return err
		}
		check("serial with timed policy", res, ref.fingerprint)

		sp = tr.begin("simrun.run_parallel", op, 0)
		res, _, wall, err = timedRun(rig, simOpts{shards: simShards})
		tr.end(sp)
		if err != nil {
			return err
		}
		if parRes.generated == 0 {
			parRes = res
		}
		check("parallel", res, parRes.fingerprint)
		par = append(par, ms(wall))
	}
	policy = tr.perOpMS("simrun.policy_tick")

	// The engines are only statistically equivalent under weighted
	// routing (per-cluster pick streams), so across engines the arrival
	// count must match and the mean latency must be close.
	if parRes.generated != ref.generated {
		out.problem("parallel engine generated %d requests, serial %d", parRes.generated, ref.generated)
	}
	if d := float64(parRes.mean-ref.mean) / float64(ref.mean); d > 0.1 || d < -0.1 {
		out.problem("parallel engine mean latency %v vs serial %v (%.1f %%)", parRes.mean, ref.mean, 100*d)
	}

	serial := median(plain)
	events := parRes.events
	kernel := nsPerOp(func() { kernelReplay(events) }, 3) / 1e6
	reqs := float64(ref.generated)
	out.set("sim.kernel_ns_per_event", kernel*1e6/float64(events))
	out.set("sim.kernel_share", kernel/serial)
	out.set("simrun.events_per_req", float64(events)/reqs)
	out.set("simrun.ns_per_event", serial*1e6/float64(events))
	out.set("simrun.bytes_per_req", float64(bytes)/reqs)
	out.set("simrun.policy_tick_ms", median(policy))
	out.set("simrun.spans_per_req", float64(spans)/float64(ref.completed))
	out.set("simrun.trace_overhead_ratio", median(sunk)/serial)
	out.set("simrun.par_windows", float64(parRes.windows))
	out.set("simrun.par_messages", float64(parRes.messages))
	out.set("simrun.par_over_serial", median(par)/serial)
	out.set("simrun.par_req_per_s", reqs/(median(par)/1e3))
	out.set("simrun.unattributed_share", 1-(kernel+median(policy)+arr)/serial)
	tail, _ := tailValue(sortedCopy(sunk))
	out.set("trace.op_ms", median(sunk))
	out.set("trace.op_tail_ms", tail)
	out.set("trace.overhead_ratio", median(sunk)/serial)
	out.note("%d rounds of serial / serial+spans / serial+policy / %d-shard runs; %d events, %d requests per run",
		len(plain), simShards, events, ref.generated)
	return tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".jsonl"))
}
