// Package core implements SLATE's global request routing optimization —
// the paper's primary contribution (§3.3). The global controller builds,
// from (a) the application call trees, (b) per-pool load-to-latency
// profiles, and (c) per-class per-cluster demand, a linear program whose
// variables are per-hop, per-class flow fractions across clusters, and
// extracts versioned routing rules from the optimum. A continuous
// control loop (Controller) re-fits profiles from telemetry,
// re-optimizes, and rolls rule changes out incrementally with a
// regression guardrail (§5 "resilience to prediction error").
package core

import (
	"fmt"
	"sort"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/queuemodel"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// Demand is the exogenous root-request rate per traffic class per
// cluster, in requests/second: Demand[class][cluster].
type Demand map[string]map[topology.ClusterID]float64

// Total returns the summed demand of one class across clusters. The
// sum iterates clusters in sorted order: it lands on LP constraint
// right-hand sides, and float addition in map order would make the
// formulation depend on iteration order.
func (d Demand) Total(class string) float64 {
	m := d[class]
	ids := make([]topology.ClusterID, 0, len(m))
	for c := range m {
		ids = append(ids, c)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var sum float64
	for _, c := range ids {
		sum += m[c]
	}
	return sum
}

// PoolProfile is the latency profile of one (service, cluster) replica
// pool: how many parallel servers it has, the reference ("standard")
// per-request service time used to normalize heterogeneous classes, and
// the queueing model over standard-request load.
type PoolProfile struct {
	Servers int
	// RefServiceTime is the demand-weighted mean service time across
	// classes at this service; a class whose requests take k× longer
	// consumes k standard requests of pool capacity.
	RefServiceTime time.Duration
	// Model must be a comparable value: caches are keyed on the profile.
	Model queuemodel.Model
}

// Profiles maps every placed (service, cluster) pool to its profile.
type Profiles map[appgraph.ServiceID]map[topology.ClusterID]PoolProfile

// Get returns the profile for a pool.
func (p Profiles) Get(s appgraph.ServiceID, c topology.ClusterID) (PoolProfile, bool) {
	m, ok := p[s]
	if !ok {
		return PoolProfile{}, false
	}
	pp, ok := m[c]
	return pp, ok
}

func (p Profiles) set(s appgraph.ServiceID, c topology.ClusterID, pp PoolProfile) {
	if p[s] == nil {
		p[s] = make(map[topology.ClusterID]PoolProfile)
	}
	p[s][c] = pp
}

// DefaultProfiles derives profiles from the application model itself, as
// if the services had been profiled offline: the reference service time
// of a service is the demand-weighted mean of the declared service times
// of every call node touching it, and each pool's model is M/M/c with
// c = replicas × concurrency.
func DefaultProfiles(app *appgraph.App, top *topology.Topology, demand Demand) Profiles {
	ref := make(map[appgraph.ServiceID]time.Duration)
	var refWeight = make(map[appgraph.ServiceID]float64)
	var refSum = make(map[appgraph.ServiceID]float64)
	for _, cl := range app.Classes {
		classDemand := demand.Total(cl.Name)
		var visit func(n *appgraph.CallNode, mult float64)
		visit = func(n *appgraph.CallNode, mult float64) {
			m := mult * float64(n.Count)
			w := classDemand * m
			if w <= 0 {
				w = m // no demand: weight by call multiplicity alone
			}
			refSum[n.Service] += w * n.Work.MeanServiceTime.Seconds()
			refWeight[n.Service] += w
			for _, ch := range n.Children {
				visit(ch, m)
			}
		}
		visit(cl.Root, 1)
	}
	for s, w := range refWeight {
		if w > 0 {
			ref[s] = time.Duration(refSum[s] / w * float64(time.Second))
		}
	}
	out := make(Profiles)
	for id, svc := range app.Services {
		rt := ref[id]
		if rt <= 0 {
			rt = time.Millisecond // service never called: nominal profile
		}
		for c, pool := range svc.Placement {
			if pool.Replicas <= 0 {
				continue
			}
			out.set(id, c, PoolProfile{
				Servers:        pool.Servers(),
				RefServiceTime: rt,
				Model:          queuemodel.NewMMc(pool.Servers(), rt),
			})
		}
	}
	return out
}

// minFitSamples is how many (load, latency) windows a pool must have
// accumulated before FitProfiles replaces its declared profile.
const minFitSamples = 3

// FitProfiles updates profiles in place from telemetry window stats:
// for each (service, cluster) with enough samples it fits an M/M/c
// curve through the observed (load, latency) history. history maps a
// pool to its accumulated samples (standard-load, latency). Pools
// without enough data keep their previous profile. This is SLATE
// learning latency profiles dynamically in production (§5).
func FitProfiles(p Profiles, history map[PoolKey][]queuemodel.Sample) {
	for key, samples := range history {
		if len(samples) < minFitSamples {
			continue
		}
		cur, ok := p.Get(key.Service, key.Cluster)
		if !ok {
			continue
		}
		fitted, err := queuemodel.FitMMc(cur.Servers, samples)
		if err != nil {
			continue
		}
		cur.Model = fitted
		if fitted.Mu > 0 {
			cur.RefServiceTime = time.Duration(float64(time.Second) / fitted.Mu)
		}
		p.set(key.Service, key.Cluster, cur)
	}
}

// PoolKey identifies a (service, cluster) replica pool.
type PoolKey struct {
	Service appgraph.ServiceID
	Cluster topology.ClusterID
}

func (k PoolKey) String() string { return fmt.Sprintf("%s@%s", k.Service, k.Cluster) }

// SampleHistory accumulates telemetry into per-pool (load, latency)
// samples for FitProfiles, keeping the most recent maxPerPool samples.
type SampleHistory struct {
	maxPerPool int
	samples    map[PoolKey][]queuemodel.Sample
}

// NewSampleHistory returns a history keeping up to maxPerPool samples
// per pool (default 64).
func NewSampleHistory(maxPerPool int) *SampleHistory {
	if maxPerPool <= 0 {
		maxPerPool = 64
	}
	return &SampleHistory{maxPerPool: maxPerPool, samples: make(map[PoolKey][]queuemodel.Sample)}
}

// Observe folds one telemetry window into the history. Window stats are
// per (service, class, cluster); they are merged across classes into an
// aggregate pool observation per flush.
func (h *SampleHistory) Observe(stats []telemetry.WindowStats) {
	type agg struct {
		rps     float64
		latSum  float64 // request-weighted latency numerator
		weight  float64
		anySeen bool
	}
	byPool := make(map[PoolKey]*agg)
	for _, ws := range stats {
		key := PoolKey{Service: appgraph.ServiceID(ws.Key.Service), Cluster: topology.ClusterID(ws.Key.Cluster)}
		a := byPool[key]
		if a == nil {
			a = &agg{}
			byPool[key] = a
		}
		a.rps += ws.RPS
		a.latSum += ws.MeanLatency.Seconds() * float64(ws.Requests)
		a.weight += float64(ws.Requests)
		a.anySeen = true
	}
	for key, a := range byPool {
		if !a.anySeen || a.weight == 0 || a.rps <= 0 { //slate:nolint floatcmp -- weight sums integral request counts; zero means no traffic
			continue
		}
		s := queuemodel.Sample{
			Lambda:  a.rps,
			Latency: time.Duration(a.latSum / a.weight * float64(time.Second)),
		}
		list := append(h.samples[key], s)
		if len(list) > h.maxPerPool {
			list = list[len(list)-h.maxPerPool:]
		}
		h.samples[key] = list
	}
}

// Samples returns the accumulated per-pool samples.
func (h *SampleHistory) Samples() map[PoolKey][]queuemodel.Sample { return h.samples }
