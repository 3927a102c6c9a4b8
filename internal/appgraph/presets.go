package appgraph

import (
	"fmt"
	"time"

	"github.com/servicelayernetworking/slate/internal/topology"
)

// Uniform returns a placement with the same replica pool in every listed
// cluster.
func Uniform(pool ReplicaPool, clusters ...topology.ClusterID) map[topology.ClusterID]ReplicaPool {
	m := make(map[topology.ClusterID]ReplicaPool, len(clusters))
	for _, c := range clusters {
		m[c] = pool
	}
	return m
}

// ChainOptions configures LinearChain.
type ChainOptions struct {
	// Services is the number of chained microservices after the ingress
	// gateway. The paper's microbenchmark uses 3.
	Services int
	// MeanServiceTime is the per-call busy time of each chained service
	// (the paper's services do simple file writes).
	MeanServiceTime time.Duration
	// Pool is the per-cluster replica pool of every service.
	Pool ReplicaPool
	// Clusters lists where every service (and the gateway) is deployed.
	Clusters []topology.ClusterID
	// RequestBytes/ResponseBytes are the sizes of each hop's messages.
	RequestBytes, ResponseBytes int64
}

// LinearChain builds the paper's microbenchmark application (§4): an
// ingress gateway chained linearly with N file-write microservices,
// replicated in every given cluster. It has a single traffic class.
//
// Chain: gateway → svc-1 → svc-2 → … → svc-N.
func LinearChain(opt ChainOptions) *App {
	if opt.Services <= 0 {
		opt.Services = 3
	}
	if opt.MeanServiceTime <= 0 {
		opt.MeanServiceTime = 10 * time.Millisecond
	}
	if opt.Pool.Replicas <= 0 {
		opt.Pool = ReplicaPool{Replicas: 2, Concurrency: 4}
	}
	if len(opt.Clusters) == 0 {
		opt.Clusters = []topology.ClusterID{topology.West, topology.East}
	}
	if opt.RequestBytes <= 0 {
		opt.RequestBytes = 1 << 10 // 1 KiB
	}
	if opt.ResponseBytes <= 0 {
		opt.ResponseBytes = 4 << 10 // 4 KiB
	}

	app := &App{Name: "linear-chain", Services: map[ServiceID]*Service{}}
	const gateway ServiceID = "gateway"
	// The gateway does negligible work itself; it exists so routing can
	// already steer at the first hop.
	app.Services[gateway] = &Service{
		ID:        gateway,
		Placement: Uniform(ReplicaPool{Replicas: opt.Pool.Replicas, Concurrency: 64}, opt.Clusters...),
	}
	work := Work{
		MeanServiceTime: opt.MeanServiceTime,
		RequestBytes:    opt.RequestBytes,
		ResponseBytes:   opt.ResponseBytes,
	}
	// Build the chain bottom-up.
	var child *CallNode
	for i := opt.Services; i >= 1; i-- {
		id := ServiceID(fmt.Sprintf("svc-%d", i))
		app.Services[id] = &Service{ID: id, Placement: Uniform(opt.Pool, opt.Clusters...)}
		n := &CallNode{
			Service: id,
			Method:  "POST",
			Path:    fmt.Sprintf("/write/%d", i),
			Work:    work,
			Count:   1,
		}
		if child != nil {
			n.Children = []*CallNode{child}
		}
		child = n
	}
	root := &CallNode{
		Service: gateway,
		Method:  "POST",
		Path:    "/ingress",
		Work: Work{
			MeanServiceTime: 100 * time.Microsecond,
			RequestBytes:    opt.RequestBytes,
			ResponseBytes:   opt.ResponseBytes,
		},
		Count:    1,
		Children: []*CallNode{child},
	}
	app.Classes = []*Class{{Name: "default", Root: root}}
	return app
}

// AnomalyOptions configures AnomalyDetection.
type AnomalyOptions struct {
	// Clusters lists the deployment clusters; the first is treated as
	// "West" where the DB is absent.
	Clusters []topology.ClusterID
	// DBClusters lists where the database is deployed (the paper's §4.3
	// scenario: degraded/absent in West due to regulation or failure).
	DBClusters []topology.ClusterID
	// MetricsBytes is the DB→MP response size. The MP→FR response is
	// MetricsBytes/ResponseRatio; the paper reports the DB response as
	// roughly 10× larger.
	MetricsBytes  int64
	ResponseRatio int64
	// FrontendTime, ProcessTime, QueryTime are per-call busy times for
	// FR, MP, DB.
	FrontendTime, ProcessTime, QueryTime time.Duration
	// Pool is the per-cluster replica pool for every service.
	Pool ReplicaPool
}

// AnomalyDetection builds the paper's §4.3 application: FR (frontend) →
// MP (metrics processor running anomaly detection) → DB (metrics store,
// e.g. Prometheus). MP pulls a large amount of metrics data from DB, so
// the DB→MP response is ~10× the MP→FR response: routing across
// clusters at FR→MP instead of MP→DB saves ~10× egress bytes.
func AnomalyDetection(opt AnomalyOptions) *App {
	if len(opt.Clusters) == 0 {
		opt.Clusters = []topology.ClusterID{topology.West, topology.East}
	}
	if len(opt.DBClusters) == 0 {
		// DB everywhere except the first cluster.
		opt.DBClusters = append([]topology.ClusterID(nil), opt.Clusters[1:]...)
	}
	if opt.MetricsBytes <= 0 {
		opt.MetricsBytes = 1_000_000 // ~1 MB of metrics per query
	}
	if opt.ResponseRatio <= 0 {
		opt.ResponseRatio = 10
	}
	if opt.FrontendTime <= 0 {
		opt.FrontendTime = 500 * time.Microsecond
	}
	if opt.ProcessTime <= 0 {
		opt.ProcessTime = 8 * time.Millisecond
	}
	if opt.QueryTime <= 0 {
		opt.QueryTime = 4 * time.Millisecond
	}
	if opt.Pool.Replicas <= 0 {
		opt.Pool = ReplicaPool{Replicas: 2, Concurrency: 4}
	}

	const (
		FR ServiceID = "fr"
		MP ServiceID = "mp"
		DB ServiceID = "db"
	)
	app := &App{Name: "anomaly-detection", Services: map[ServiceID]*Service{
		FR: {ID: FR, Placement: Uniform(ReplicaPool{Replicas: opt.Pool.Replicas, Concurrency: 64}, opt.Clusters...)},
		MP: {ID: MP, Placement: Uniform(opt.Pool, opt.Clusters...)},
		DB: {ID: DB, Placement: Uniform(opt.Pool, opt.DBClusters...)},
	}}
	root := &CallNode{
		Service: FR, Method: "GET", Path: "/detect", Count: 1,
		Work: Work{MeanServiceTime: opt.FrontendTime, RequestBytes: 512, ResponseBytes: opt.MetricsBytes / opt.ResponseRatio},
		Children: []*CallNode{{
			Service: MP, Method: "GET", Path: "/analyze", Count: 1,
			Work: Work{MeanServiceTime: opt.ProcessTime, RequestBytes: 1 << 10, ResponseBytes: opt.MetricsBytes / opt.ResponseRatio},
			Children: []*CallNode{{
				Service: DB, Method: "GET", Path: "/metrics/query", Count: 1,
				Work: Work{MeanServiceTime: opt.QueryTime, RequestBytes: 2 << 10, ResponseBytes: opt.MetricsBytes},
			}},
		}},
	}
	app.Classes = []*Class{{Name: "detect", Root: root}}
	return app
}

// Standard service IDs for AnomalyDetection.
const (
	AnomalyFR ServiceID = "fr"
	AnomalyMP ServiceID = "mp"
	AnomalyDB ServiceID = "db"
)

// TwoClassOptions configures TwoClassApp.
type TwoClassOptions struct {
	Clusters []topology.ClusterID
	// LightTime and HeavyTime are the worker busy times of the L and H
	// classes. The paper's §4.4 scenario makes H "significantly more
	// expensive" than L.
	LightTime, HeavyTime time.Duration
	// LightBytes and HeavyBytes are response sizes per class.
	LightBytes, HeavyBytes int64
	Pool                   ReplicaPool
}

// TwoClassApp builds the paper's §4.4 application: a frontend and a
// worker service receiving two request classes, L (light) and H (heavy),
// where H consumes far more compute. Class-blind balancers offload L and
// H evenly; SLATE can offload a smaller number of only-H requests.
func TwoClassApp(opt TwoClassOptions) *App {
	if len(opt.Clusters) == 0 {
		opt.Clusters = []topology.ClusterID{topology.West, topology.East}
	}
	if opt.LightTime <= 0 {
		opt.LightTime = 2 * time.Millisecond
	}
	if opt.HeavyTime <= 0 {
		opt.HeavyTime = 20 * time.Millisecond
	}
	if opt.LightBytes <= 0 {
		opt.LightBytes = 2 << 10
	}
	if opt.HeavyBytes <= 0 {
		opt.HeavyBytes = 16 << 10
	}
	if opt.Pool.Replicas <= 0 {
		opt.Pool = ReplicaPool{Replicas: 2, Concurrency: 4}
	}
	const (
		FE ServiceID = "frontend"
		WK ServiceID = "worker"
	)
	app := &App{Name: "two-class", Services: map[ServiceID]*Service{
		FE: {ID: FE, Placement: Uniform(ReplicaPool{Replicas: opt.Pool.Replicas, Concurrency: 64}, opt.Clusters...)},
		WK: {ID: WK, Placement: Uniform(opt.Pool, opt.Clusters...)},
	}}
	feWork := Work{MeanServiceTime: 200 * time.Microsecond, RequestBytes: 512, ResponseBytes: 1 << 10}
	app.Classes = []*Class{
		{Name: "L", Root: &CallNode{
			Service: FE, Method: "GET", Path: "/light", Count: 1, Work: feWork,
			Children: []*CallNode{{
				Service: WK, Method: "GET", Path: "/work/light", Count: 1,
				Work: Work{MeanServiceTime: opt.LightTime, RequestBytes: 512, ResponseBytes: opt.LightBytes},
			}},
		}},
		{Name: "H", Root: &CallNode{
			Service: FE, Method: "POST", Path: "/heavy", Count: 1, Work: feWork,
			Children: []*CallNode{{
				Service: WK, Method: "POST", Path: "/work/heavy", Count: 1,
				Work: Work{MeanServiceTime: opt.HeavyTime, RequestBytes: 2 << 10, ResponseBytes: opt.HeavyBytes},
			}},
		}},
	}
	return app
}

// Standard service IDs for TwoClassApp.
const (
	TwoClassFrontend ServiceID = "frontend"
	TwoClassWorker   ServiceID = "worker"
)

// FanoutOptions configures FanoutApp.
type FanoutOptions struct {
	Clusters []topology.ClusterID
	// Width is the number of backend services the aggregator calls in
	// parallel.
	Width int
	// BackendTime is each backend's busy time.
	BackendTime time.Duration
	Pool        ReplicaPool
}

// FanoutApp builds an aggregator that calls Width backends in parallel —
// the scatter/gather shape common in search and feed serving. It is not
// one of the paper's evaluation apps but exercises parallel call-tree
// execution, which the paper's Fig. 1 motivates.
func FanoutApp(opt FanoutOptions) *App {
	if len(opt.Clusters) == 0 {
		opt.Clusters = []topology.ClusterID{topology.West, topology.East}
	}
	if opt.Width <= 0 {
		opt.Width = 3
	}
	if opt.BackendTime <= 0 {
		opt.BackendTime = 5 * time.Millisecond
	}
	if opt.Pool.Replicas <= 0 {
		opt.Pool = ReplicaPool{Replicas: 2, Concurrency: 4}
	}
	const AG ServiceID = "aggregator"
	app := &App{Name: "fanout", Services: map[ServiceID]*Service{
		AG: {ID: AG, Placement: Uniform(ReplicaPool{Replicas: opt.Pool.Replicas, Concurrency: 64}, opt.Clusters...)},
	}}
	root := &CallNode{
		Service: AG, Method: "GET", Path: "/aggregate", Count: 1, Parallel: true,
		Work: Work{MeanServiceTime: 300 * time.Microsecond, RequestBytes: 512, ResponseBytes: 8 << 10},
	}
	for i := 1; i <= opt.Width; i++ {
		id := ServiceID(fmt.Sprintf("backend-%d", i))
		app.Services[id] = &Service{ID: id, Placement: Uniform(opt.Pool, opt.Clusters...)}
		root.Children = append(root.Children, &CallNode{
			Service: id, Method: "GET", Path: fmt.Sprintf("/shard/%d", i), Count: 1,
			Work: Work{MeanServiceTime: opt.BackendTime, RequestBytes: 512, ResponseBytes: 4 << 10},
		})
	}
	app.Classes = []*Class{{Name: "default", Root: root}}
	return app
}
