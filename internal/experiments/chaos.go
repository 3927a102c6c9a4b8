package experiments

import (
	"fmt"
	"time"

	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/fault"
	"github.com/servicelayernetworking/slate/internal/simrun"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// Chaos control-plane fault timeline (virtual seconds). The global
// outage overlaps a west-east partition: the regional incident the
// degradation ladder exists for. Proxies whose rules outlive the TTL
// must stop trusting them before the partition starts swallowing the
// cross-cluster calls those rules demand.
const (
	chaosPeriod     = 2 * time.Second
	chaosOutageAt   = 20 * time.Second
	chaosOutageDur  = 25 * time.Second // ticks 20..44 all missed
	chaosCutAt      = 26 * time.Second
	chaosCutDur     = 19 * time.Second // ends with the outage at t=45
	chaosFlapAt     = 60 * time.Second
	chaosFlaps      = 3
	chaosFlapDown   = 1 * time.Second
	chaosFlapUp     = 3 * time.Second
	chaosDuration   = 90 * time.Second
	chaosWarmup     = 5 * time.Second
	chaosRuleTTL    = 3 * chaosPeriod // hardened proxies degrade after 6s of silence
	chaosWestDemand = 700.0           // ~0.88 of west capacity: queueing makes SLATE offload
	chaosEastDemand = 100.0
)

// chaosLegs is the Chaos table: the same seeded scenario — west near
// local capacity so SLATE offloads cross-cluster, then a
// global-controller outage overlapping a west-east partition, then a
// flapping global controller — twice under the primed SLATE policy. The
// hardened leg gives proxies a rule-staleness TTL (degrade to
// local-biased routing once the control plane has been silent past it);
// the unhardened leg holds stale rules forever and keeps routing into
// the cut link.
func chaosLegs(opt Options) []leg {
	demand := core.Demand{"default": {
		topology.West: chaosWestDemand,
		topology.East: chaosEastDemand,
	}}
	sched := fault.NewSchedule()
	sched.Outage(fault.Global, chaosOutageAt, chaosOutageDur)
	sched.Partition(topology.West, topology.East, chaosCutAt, chaosCutDur)
	// Short flaps separated by quiet periods: every other control tick
	// still lands, so rules never exceed the TTL — the "stale-but-held"
	// rung absorbs a crash-looping controller without degrading.
	sched.Flap(fault.Global, chaosFlapAt, chaosFlaps, chaosFlapDown, chaosFlapUp)

	unhardened := simrun.Scenario{
		Name:          "chaos",
		Top:           topology.TwoClusters(40 * time.Millisecond),
		App:           chainApp(topology.West, topology.East),
		Workload:      steady("default", demand["default"]),
		Duration:      chaosDuration,
		Warmup:        chaosWarmup,
		ControlPeriod: chaosPeriod,
		Seed:          opt.Seed,
		Faults:        sched,
	}
	hardened := unhardened
	hardened.RuleTTL = chaosRuleTTL
	// Only the hardened leg exports spans: both legs share the
	// deterministic per-run trace-ID sequence, so exporting both into
	// one sink would collide trace IDs across legs.
	hardened.SpanSink = opt.SpanSink
	policy := slateLeg(core.ControllerConfig{Decompose: true}, demand)
	return []leg{{"hardened", hardened, policy}, {"unhardened", unhardened, policy}}
}

// Chaos measures graceful degradation under control-plane failures over
// chaosLegs. Reported: availability, p50/p99 latency,
// degraded/missed/failed counts, and per-window timelines.
func Chaos(opt Options) (*Figure, error) {
	opt = opt.defaults()
	legs := chaosLegs(opt)
	results, err := runLegs(legs)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:    "chaos",
		Title: "Graceful degradation under control-plane faults (hardened TTL vs stale-forever)",
		Notes: []string{
			fmt.Sprintf("global outage t=%v..%v overlapping west-east partition t=%v..%v; %d controller flaps from t=%v",
				chaosOutageAt, chaosOutageAt+chaosOutageDur, chaosCutAt, chaosCutAt+chaosCutDur, chaosFlaps, chaosFlapAt),
			fmt.Sprintf("hardened rule TTL %v (= 3 control periods); unhardened holds stale rules forever", chaosRuleTTL),
			fmt.Sprintf("west %v RPS (~0.88 of local capacity: queueing makes SLATE offload), east %v RPS, seed %d", chaosWestDemand, chaosEastDemand, opt.Seed),
			"x = time (s); y = per-window mean latency (ms) / completed RPS",
		},
		Summary: map[string]float64{},
	}
	for i, l := range legs {
		res := results[i]
		fig.Series = append(fig.Series,
			timelineSeries(l.name+"-latency", "mean latency (ms)", res, windowMeanMs),
			timelineSeries(l.name+"-rps", "completed RPS", res, func(p simrun.TimelinePoint) float64 { return p.RPS }))
		fig.Summary[l.name+"_availability"] = res.Availability
		fig.Summary[l.name+"_p50_ms"] = ms(res.P50)
		fig.Summary[l.name+"_p99_ms"] = ms(res.P99)
		fig.Summary[l.name+"_failed"] = float64(res.Failed)
		fig.Summary[l.name+"_degraded_calls"] = float64(res.DegradedCalls)
		fig.Summary[l.name+"_missed_ticks"] = float64(res.MissedTicks)
	}
	hard, unhard := results[0], results[1]
	fig.Summary["availability_gain"] = hard.Availability - unhard.Availability
	// Recovery: the first post-incident control window whose mean
	// latency is back within 1.5x the pre-fault steady state.
	fig.Summary["hardened_recovery_s"] = recoveryTime(hard, chaosOutageAt+chaosOutageDur)
	return fig, nil
}

// recoveryTime returns the time (seconds since scenario start) of the
// first control window at or after `after` whose mean latency is within
// 1.5x the pre-fault baseline (mean over the windows before the first
// fault), or -1 if the run never recovers.
func recoveryTime(res *simrun.Result, after time.Duration) float64 {
	base, ok := meanLatencyOver(res, 0, chaosOutageAt)
	if !ok {
		return -1
	}
	for _, p := range res.Timeline {
		if p.At >= after && windowMeanMs(p) <= 1.5*base {
			return p.At.Seconds()
		}
	}
	return -1
}
