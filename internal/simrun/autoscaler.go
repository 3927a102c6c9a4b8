package simrun

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/sim"
)

// AutoscalerConfig describes a Kubernetes-HPA-style horizontal
// autoscaler for every replica pool in a scenario. The paper (§2)
// positions request routing as complementary to autoscaling: scalers
// adjust capacity on second-to-minute timescales (monitoring period +
// decision interval + image pull + warm-up), while routing redirects
// individual requests instantly; §5 calls their interaction out as open
// research. This implementation reproduces the HPA control law
//
//	desired = ceil(current × observedUtilization / target)
//
// evaluated every Period over measured busy-server utilization, with
// new replicas taking ReactionDelay to begin serving (provisioning +
// cold start) and scale-downs applying after the same delay.
type AutoscalerConfig struct {
	// Period is the evaluation interval (HPA default 15s).
	Period time.Duration
	// TargetUtilization is the busy-server utilization setpoint
	// (HPA's CPU target; default 0.7).
	TargetUtilization float64
	// ReactionDelay is how long a scaling decision takes to become
	// effective — container scheduling, image pull, application
	// initialization (paper §2: "including container image pull and
	// application initialization"). Default 30s.
	ReactionDelay time.Duration
	// MinReplicas/MaxReplicas bound every pool (defaults 1 / 10× the
	// initial replica count).
	MinReplicas, MaxReplicas int
	// Tolerance suppresses scaling when |desired-current|/current is
	// below it (HPA default 0.1).
	Tolerance float64
	// DownscaleStabilization makes scale-downs conservative: the
	// effective desired count is the maximum of the desired counts
	// computed over this trailing window (HPA's
	// --horizontal-pod-autoscaler-downscale-stabilization, default 5m;
	// here default 30s to fit short simulations). Prevents the
	// delay-induced up/down oscillation.
	DownscaleStabilization time.Duration
}

func (a *AutoscalerConfig) defaults() AutoscalerConfig {
	out := AutoscalerConfig{
		Period:                 15 * time.Second,
		TargetUtilization:      0.7,
		ReactionDelay:          30 * time.Second,
		MinReplicas:            1,
		Tolerance:              0.1,
		DownscaleStabilization: 30 * time.Second,
	}
	if a == nil {
		return out
	}
	if a.Period > 0 {
		out.Period = a.Period
	}
	if a.TargetUtilization > 0 {
		out.TargetUtilization = a.TargetUtilization
	}
	if a.ReactionDelay > 0 {
		out.ReactionDelay = a.ReactionDelay
	}
	if a.MinReplicas > 0 {
		out.MinReplicas = a.MinReplicas
	}
	if a.MaxReplicas > 0 {
		out.MaxReplicas = a.MaxReplicas
	}
	if a.Tolerance > 0 {
		out.Tolerance = a.Tolerance
	}
	if a.DownscaleStabilization > 0 {
		out.DownscaleStabilization = a.DownscaleStabilization
	}
	return out
}

// ScaleEvent records one effective autoscaler action.
type ScaleEvent struct {
	At       time.Duration
	Pool     core.PoolKey
	Replicas int // replica count after the action
}

// autoscaler drives per-pool scaling inside a run.
type autoscaler struct {
	cfg   AutoscalerConfig
	pools map[core.PoolKey]*pool
	// keys lists the pools in (service, cluster) order. tick walks it, so
	// resizes decided in the same tick are scheduled — and, landing at the
	// same instant, fire and are recorded — in an order that does not
	// depend on map iteration.
	keys   []core.PoolKey
	conc   map[core.PoolKey]int // per-replica concurrency
	init   map[core.PoolKey]int // initial replicas
	cur    map[core.PoolKey]int // current replicas (post-delay)
	events []ScaleEvent
	// history holds recent raw desired counts per pool for the
	// downscale stabilization window.
	history map[core.PoolKey][]desiredAt
}

type desiredAt struct {
	at      time.Duration
	desired int
}

func newAutoscaler(cfg AutoscalerConfig, pools map[core.PoolKey]*pool, conc map[core.PoolKey]int) *autoscaler {
	a := &autoscaler{
		cfg:     cfg,
		pools:   pools,
		conc:    conc,
		init:    map[core.PoolKey]int{},
		cur:     map[core.PoolKey]int{},
		history: map[core.PoolKey][]desiredAt{},
	}
	for key, p := range pools {
		replicas := p.servers / conc[key]
		a.init[key] = replicas
		a.cur[key] = replicas
		a.keys = append(a.keys, key)
	}
	sort.Slice(a.keys, func(i, j int) bool { return lessPool(a.keys[i], a.keys[j]) })
	return a
}

// lessPool orders pool keys by (service, cluster).
func lessPool(a, b core.PoolKey) bool {
	if a.Service != b.Service {
		return a.Service < b.Service
	}
	return a.Cluster < b.Cluster
}

func (a *autoscaler) maxFor(key core.PoolKey) int {
	if a.cfg.MaxReplicas > 0 {
		return a.cfg.MaxReplicas
	}
	return 10 * a.init[key]
}

// tick evaluates the HPA control law for every pool using utilization
// accumulated since the previous tick, and schedules effective changes
// after ReactionDelay.
func (a *autoscaler) tick(k *sim.Kernel) {
	for _, key := range a.keys {
		p := a.pools[key]
		servers := p.servers
		if servers <= 0 {
			continue
		}
		window := a.cfg.Period.Seconds()
		util := p.busySeconds / (window * float64(servers))
		p.busySeconds = 0
		current := a.cur[key]
		desired := int(math.Ceil(float64(current) * util / a.cfg.TargetUtilization))
		if desired < a.cfg.MinReplicas {
			desired = a.cfg.MinReplicas
		}
		if max := a.maxFor(key); desired > max {
			desired = max
		}
		// Downscale stabilization: never scale below the max desired
		// seen within the trailing window.
		now := k.Now().Duration()
		hist := append(a.history[key], desiredAt{at: now, desired: desired})
		cut := 0
		for cut < len(hist) && hist[cut].at+a.cfg.DownscaleStabilization < now {
			cut++
		}
		hist = hist[cut:]
		a.history[key] = hist
		if desired < current {
			for _, h := range hist {
				if h.desired > desired {
					desired = h.desired
				}
			}
			if desired > current {
				desired = current
			}
		}
		if desired == current {
			continue
		}
		if math.Abs(float64(desired-current))/float64(current) < a.cfg.Tolerance {
			continue
		}
		a.cur[key] = desired
		target := desired * a.conc[key]
		k.After(a.cfg.ReactionDelay, func(k *sim.Kernel) {
			a.pools[key].resize(k, target)
			a.events = append(a.events, ScaleEvent{
				At:       k.Now().Duration(),
				Pool:     key,
				Replicas: target / a.conc[key],
			})
		})
	}
}

// validate checks the config against the scenario.
func validateAutoscaler(cfg *AutoscalerConfig) error {
	if cfg == nil {
		return nil
	}
	c := cfg.defaults()
	if c.TargetUtilization >= 1 {
		return fmt.Errorf("simrun: autoscaler target utilization %v must be < 1", c.TargetUtilization)
	}
	if c.MaxReplicas > 0 && c.MaxReplicas < c.MinReplicas {
		return fmt.Errorf("simrun: autoscaler max replicas %d < min %d", c.MaxReplicas, c.MinReplicas)
	}
	return nil
}
