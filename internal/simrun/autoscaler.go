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
	// MaxReplicas bounds every pool from above (default 10× the initial
	// replica count); hpaMinReplicas bounds it from below.
	MaxReplicas int
	// DownscaleStabilization makes scale-downs conservative: the
	// effective desired count is the maximum of the desired counts
	// computed over this trailing window (HPA's
	// --horizontal-pod-autoscaler-downscale-stabilization, default 5m;
	// here default 30s to fit short simulations). Prevents the
	// delay-induced up/down oscillation.
	DownscaleStabilization time.Duration
}

// HPA defaults no scenario overrides: the replica floor of every pool,
// and the relative change |desired-current|/current below which the
// scaler leaves a pool alone.
const (
	hpaMinReplicas = 1
	hpaTolerance   = 0.1
)

func (a *AutoscalerConfig) defaults() AutoscalerConfig {
	out := AutoscalerConfig{
		Period:                 15 * time.Second,
		TargetUtilization:      0.7,
		ReactionDelay:          30 * time.Second,
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
	if a.MaxReplicas > 0 {
		out.MaxReplicas = a.MaxReplicas
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
	cfg AutoscalerConfig
	sr  *shardRun // owner of the pools: resizing one starts its queued calls
	// pools lists the shard's pools in (service, cluster) order. tick walks
	// it, so resizes decided in the same tick are scheduled — and, landing
	// at the same instant, fire and are recorded — in a fixed order.
	pools  []*scaled
	events []ScaleEvent
}

// scaled is one pool's scaling state.
type scaled struct {
	po        *pool
	init, cur int // initial and current (post-delay) replicas
	// history holds recent raw desired counts for the downscale
	// stabilization window.
	history []desiredAt
}

type desiredAt struct {
	at      time.Duration
	desired int
}

// newAutoscaler scales the pools of the clusters shard sr owns.
func newAutoscaler(cfg AutoscalerConfig, sr *shardRun) *autoscaler {
	a := &autoscaler{cfg: cfg, sr: sr}
	pl := sr.par.pl
	for i := range pl.pools {
		po := &pl.pools[i]
		if pl.shardOf[pl.index[po.key.Cluster]] == sr.id {
			replicas := po.servers / po.conc
			a.pools = append(a.pools, &scaled{po: po, init: replicas, cur: replicas})
		}
	}
	sort.Slice(a.pools, func(i, j int) bool { return lessPool(a.pools[i].po.key, a.pools[j].po.key) })
	return a
}

// lessPool orders pool keys by (service, cluster).
func lessPool(a, b core.PoolKey) bool {
	if a.Service != b.Service {
		return a.Service < b.Service
	}
	return a.Cluster < b.Cluster
}

// tick evaluates the HPA control law for every pool using utilization
// accumulated since the previous tick, schedules effective changes after
// ReactionDelay, and the next tick while that is before Duration.
func (a *autoscaler) tick(k *sim.Kernel) {
	for _, s := range a.pools {
		p := s.po
		window := a.cfg.Period.Seconds()
		util := p.busySeconds / (window * float64(p.servers))
		p.busySeconds = 0
		current := s.cur
		desired := int(math.Ceil(float64(current) * util / a.cfg.TargetUtilization))
		if desired < hpaMinReplicas {
			desired = hpaMinReplicas
		}
		maxReplicas := 10 * s.init
		if a.cfg.MaxReplicas > 0 {
			maxReplicas = a.cfg.MaxReplicas
		}
		if desired > maxReplicas {
			desired = maxReplicas
		}
		// Downscale stabilization: never scale below the max desired
		// seen within the trailing window.
		now := k.Now().Duration()
		hist := append(s.history, desiredAt{at: now, desired: desired})
		cut := 0
		for cut < len(hist) && hist[cut].at+a.cfg.DownscaleStabilization < now {
			cut++
		}
		hist = hist[cut:]
		s.history = hist
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
		if math.Abs(float64(desired-current))/float64(current) < hpaTolerance {
			continue
		}
		s.cur = desired
		k.After(a.cfg.ReactionDelay, func(k *sim.Kernel) {
			a.sr.resize(k, p, desired*p.conc)
			a.events = append(a.events, ScaleEvent{At: k.Now().Duration(), Pool: p.key, Replicas: desired})
		})
	}
	if k.Now().Duration()+a.cfg.Period < a.sr.par.scn.Duration {
		k.After(a.cfg.Period, a.tick)
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
	return nil
}
