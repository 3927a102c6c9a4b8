// Package appgraph models microservice applications: services and their
// replica placement across clusters, and per-traffic-class call trees
// describing which services a request touches, how much work each call
// performs, and how large requests and responses are.
//
// A single user request fans out into a tree of endpoint calls (paper
// Fig. 1). SLATE's optimizer, the discrete-event runtime, and the
// loopback emulation all consume the same application model, so an
// experiment scenario is defined once.
package appgraph

import (
	"fmt"
	"time"

	"github.com/servicelayernetworking/slate/internal/topology"
)

// ServiceID names a microservice.
type ServiceID string

// ReplicaPool describes a service's deployment within one cluster.
type ReplicaPool struct {
	// Replicas is the number of service instances in the cluster.
	Replicas int
	// Concurrency is the number of requests one replica processes
	// simultaneously (server worker threads). Total cluster service
	// capacity is Replicas × Concurrency parallel requests.
	Concurrency int
}

// Servers returns the total number of parallel request processors the
// pool provides (the "c" of an M/M/c queue).
func (p ReplicaPool) Servers() int { return p.Replicas * p.Concurrency }

// Service describes one microservice and where it is deployed. Services
// may be replicated in every cluster or only a subset (partial
// replication, paper §2).
type Service struct {
	ID        ServiceID
	Placement map[topology.ClusterID]ReplicaPool
}

// PlacedIn reports whether the service has replicas in cluster c.
func (s *Service) PlacedIn(c topology.ClusterID) bool {
	p, ok := s.Placement[c]
	return ok && p.Replicas > 0
}

// Clusters returns the clusters hosting the service, in topology order.
func (s *Service) Clusters(top *topology.Topology) []topology.ClusterID {
	var out []topology.ClusterID
	for _, id := range top.ClusterIDs() {
		if s.PlacedIn(id) {
			out = append(out, id)
		}
	}
	return out
}

// TimeDist selects the service-time distribution for a call.
type TimeDist int

const (
	// DistExponential draws exponential service times (the M/M/1
	// assumption used by SLATE's latency model, paper §3.3).
	DistExponential TimeDist = iota
	// DistDeterministic uses the mean as a fixed service time (M/D/1),
	// closer to the paper's file-write microbenchmark services.
	DistDeterministic
	// DistPareto draws heavy-tailed (Lomax / Pareto type II) service
	// times with shape Work.TailAlpha and the same mean — the realistic
	// regime for planet-scale services, where rare slow requests
	// dominate tail latency (TraDE-style dynamics).
	DistPareto
)

func (d TimeDist) String() string {
	switch d {
	case DistExponential:
		return "exponential"
	case DistDeterministic:
		return "deterministic"
	case DistPareto:
		return "pareto"
	default:
		return fmt.Sprintf("TimeDist(%d)", int(d))
	}
}

// Work describes the resource demand one call places on a service.
type Work struct {
	// MeanServiceTime is the expected busy time a single request keeps
	// one server occupied (compute plus local IO), excluding time spent
	// waiting on child calls.
	MeanServiceTime time.Duration
	// Dist selects the service-time distribution.
	Dist TimeDist
	// TailAlpha is the Pareto shape for DistPareto (must be > 1 so the
	// mean exists; 1.5–2.5 are typical heavy-tail fits). Ignored by the
	// other distributions.
	TailAlpha float64
	// RequestBytes is the size of the request sent to this service.
	RequestBytes int64
	// ResponseBytes is the size of the response this service returns to
	// its caller. Cross-cluster responses are what dominates egress cost
	// in the paper's anomaly-detection scenario (§4.3).
	ResponseBytes int64
}

// CallNode is one node of a traffic class's call tree: an endpoint call
// to a service, the work it performs there, and the child calls it
// spawns.
type CallNode struct {
	Service ServiceID
	Method  string // HTTP method, e.g. "GET"
	Path    string // HTTP path, e.g. "/detect"
	Work    Work
	// Count is how many times the parent invokes this call per one
	// execution of the parent (fan-out multiplier ≥ 1). The root node
	// must have Count 1.
	Count int
	// Parallel: when true the parent issues its children concurrently
	// and waits for all; when false children run sequentially. Parallel
	// applies to the children of this node.
	Parallel bool
	Children []*CallNode
}

// Walk visits the node and all descendants in depth-first pre-order.
func (n *CallNode) Walk(fn func(*CallNode)) {
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Class is a traffic class: a named subset of requests with a common
// call tree and resource profile (paper §3.3 "Deriving Classes").
type Class struct {
	Name string
	Root *CallNode
}

// App is a complete application: its services (with placement) and its
// traffic classes.
type App struct {
	Name     string
	Services map[ServiceID]*Service
	Classes  []*Class
}

// Service returns the named service or nil.
func (a *App) Service(id ServiceID) *Service { return a.Services[id] }

// Class returns the named class or nil.
func (a *App) Class(name string) *Class {
	for _, c := range a.Classes {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// FrontendService returns the service at the root of the first class's
// call tree — the ingress entry point. All classes must share the same
// root service (validated by Validate).
func (a *App) FrontendService() ServiceID {
	if len(a.Classes) == 0 {
		return ""
	}
	return a.Classes[0].Root.Service
}

// Validate checks structural invariants: every class has a root with
// Count 1; every call's service exists, is placed in at least one
// cluster of top, and fan-out counts are positive; all class roots share
// one frontend service; placements only name clusters in top.
func (a *App) Validate(top *topology.Topology) error {
	if len(a.Services) == 0 {
		return fmt.Errorf("app %q has no services", a.Name)
	}
	if len(a.Classes) == 0 {
		return fmt.Errorf("app %q has no traffic classes", a.Name)
	}
	for id, s := range a.Services {
		if s.ID != id {
			return fmt.Errorf("service map key %q does not match ID %q", id, s.ID)
		}
		placed := false
		for c, p := range s.Placement {
			if !top.Has(c) {
				return fmt.Errorf("service %q placed in unknown cluster %q", id, c)
			}
			if p.Replicas < 0 || p.Concurrency < 0 {
				return fmt.Errorf("service %q has negative pool in %q", id, c)
			}
			if p.Replicas > 0 {
				if p.Concurrency == 0 {
					return fmt.Errorf("service %q in %q has replicas but zero concurrency", id, c)
				}
				placed = true
			}
		}
		if !placed {
			return fmt.Errorf("service %q is not placed in any cluster", id)
		}
	}
	frontend := a.Classes[0].Root.Service
	seen := map[string]bool{}
	for _, cl := range a.Classes {
		if cl.Name == "" {
			return fmt.Errorf("app %q has a class with empty name", a.Name)
		}
		if seen[cl.Name] {
			return fmt.Errorf("duplicate class name %q", cl.Name)
		}
		seen[cl.Name] = true
		if cl.Root == nil {
			return fmt.Errorf("class %q has no call tree", cl.Name)
		}
		if cl.Root.Count != 1 {
			return fmt.Errorf("class %q root has Count %d, want 1", cl.Name, cl.Root.Count)
		}
		if cl.Root.Service != frontend {
			return fmt.Errorf("class %q roots at %q, but class %q roots at %q: all classes must share a frontend",
				cl.Name, cl.Root.Service, a.Classes[0].Name, frontend)
		}
		var err error
		cl.Root.Walk(func(n *CallNode) {
			if err != nil {
				return
			}
			if _, ok := a.Services[n.Service]; !ok {
				err = fmt.Errorf("class %q calls unknown service %q", cl.Name, n.Service)
				return
			}
			if n.Count < 1 {
				err = fmt.Errorf("class %q call to %q has Count %d, want >= 1", cl.Name, n.Service, n.Count)
				return
			}
			if n.Work.MeanServiceTime < 0 || n.Work.RequestBytes < 0 || n.Work.ResponseBytes < 0 {
				err = fmt.Errorf("class %q call to %q has negative work parameters", cl.Name, n.Service)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Nodes returns all call nodes of the class in depth-first pre-order.
func (c *Class) Nodes() []*CallNode {
	var out []*CallNode
	c.Root.Walk(func(n *CallNode) { out = append(out, n) })
	return out
}
