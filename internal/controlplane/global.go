// Package controlplane implements SLATE's hierarchical control plane as
// network daemons (paper §3, Fig. 2): the Global Controller, which runs
// the request routing optimization and pushes rules down, and the
// Cluster Controller, which aggregates per-service telemetry for its
// region (avoiding the scaling limitation of every instance talking to
// the global controller), tags it with the cluster ID, relays it
// upstream, and redistributes rule pushes to every local SLATE-proxy.
//
// Wire protocol (JSON over HTTP):
//
//	POST global:/v1/register   {cluster, url}          cluster joins
//	POST global:/v1/metrics    {cluster, window_ms, stats[], delta?, epoch?, removed?}
//	POST global:/v1/optimize   {}                      force a tick
//	GET  global:/v1/table                              current rules
//	GET  global:/v1/status                             demand, version
//	POST cluster:/v1/patch     routing.Patch           incremental rule push
//	GET  cluster:/v1/rules[?since=N]                   table, or patch since version N
//	GET  cluster:/v1/stats                             local window peek
//
// Rule distribution is incremental: the global controller keeps a
// per-cluster shadow of the last acknowledged table slice and pushes
// only the changed rules (routing.Patch) to each cluster, concurrently
// with bounded parallelism. A cluster that answers 409 (version gap —
// e.g. it restarted) is resynced with a full patch. Telemetry ingest is
// likewise incremental: cluster controllers upload only changed
// (service, class) aggregates with a monotonically increasing epoch;
// an epoch gap makes the global answer 409, which tells the cluster to
// fall back to a full report.
package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/obs"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// MetricsReport is one cluster controller's telemetry upload. A full
// report (Delta false) carries the complete window and resets the
// cluster's state at the global; a delta report carries only the stats
// that changed since the previous epoch plus the keys that disappeared.
type MetricsReport struct {
	Cluster  topology.ClusterID      `json:"cluster"`
	WindowMS int64                   `json:"window_ms"`
	Stats    []telemetry.WindowStats `json:"stats"`
	// Delta marks an incremental report: Stats holds only changed
	// aggregates; Removed lists keys absent since the previous epoch.
	Delta bool `json:"delta,omitempty"`
	// Epoch orders reports from one cluster. A delta is only accepted
	// when its epoch is exactly the successor of the last applied one;
	// otherwise the global answers 409 and the cluster resyncs with a
	// full report. Full reports set the epoch unconditionally.
	Epoch   uint64                `json:"epoch,omitempty"`
	Removed []telemetry.MetricKey `json:"removed,omitempty"`
}

// RegisterRequest announces a cluster controller to the global
// controller.
type RegisterRequest struct {
	Cluster topology.ClusterID `json:"cluster"`
	URL     string             `json:"url"`
}

// Status is the global controller's introspection snapshot.
type Status struct {
	TableVersion uint64                                    `json:"table_version"`
	Rules        int                                       `json:"rules"`
	Demand       map[string]map[topology.ClusterID]float64 `json:"demand"`
	Clusters     []topology.ClusterID                      `json:"clusters"`
	Ticks        uint64                                    `json:"ticks"`
	LastError    string                                    `json:"last_error,omitempty"`
}

// ingestStripes is the number of lock stripes sharding the telemetry
// ingest map, so concurrent cluster uploads do not serialize on one
// mutex.
const ingestStripes = 16

// pushParallelism bounds the concurrent rule pushes per tick: enough to
// overlap slow peers, small enough not to stampede the network.
const pushParallelism = 8

// clusterIngest is the global controller's telemetry state for one
// cluster: the reconstructed full window (deltas folded in), kept
// telemetry.Sorted, and the epoch of the last applied report.
type clusterIngest struct {
	epoch    uint64
	stats    []telemetry.WindowStats
	reported bool // reported since the last tick merged this cluster
	// lastRPS is the reconstructed window's total RPS after the previous
	// report, the baseline for event-driven breach detection.
	lastRPS float64
}

// shadow is what one cluster last acknowledged: its slice of the rules
// and the published table that slice was cut from.
type shadow struct{ slice, from *routing.Table }

// ingestStripe is one lock stripe of the sharded ingest map.
type ingestStripe struct {
	mu       sync.Mutex
	clusters map[topology.ClusterID]*clusterIngest
	ids      []topology.ClusterID // the keys of clusters, sorted
}

// reportBodies recycles the buffers report bodies are read into. Not a
// Global field: the runtime lists every used sync.Pool until its second
// idle GC, so a pool inside a discarded Global would pin all it points to.
var reportBodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Global is the Global Controller daemon: an HTTP API around
// core.Controller plus incremental rule push-down to registered cluster
// controllers.
type Global struct {
	mu       sync.Mutex
	ctrl     *core.Controller
	clusters map[topology.ClusterID]string // cluster -> cluster-controller URL
	window   time.Duration
	ticks    uint64
	lastErr  string
	client   *http.Client

	ingest          [ingestStripes]ingestStripe
	pendingClusters atomic.Int64 // clusters reported since the last tick

	// Replication state (EnableHA; see ha.go). Guarded by mu.
	haEnabled    bool
	replica      string
	haCfg        HAConfig
	isLeader     bool
	leaseEpoch   uint64
	maxSeenEpoch uint64
	leaderURL    string
	snapCache    *core.ControllerSnapshot
	eventArmed   bool
	eventTokens  int
	eventCh      chan struct{}
	now          func() time.Time

	// pushSem (capacity 1) serializes whole push rounds — a semaphore
	// rather than a mutex because a round blocks on the fan-out's
	// WaitGroup; sentMu guards the per-cluster shadow of the last
	// acknowledged table slice within a round.
	pushSem chan struct{}
	sentMu  sync.Mutex
	sent    map[topology.ClusterID]shadow

	metricsH       http.Handler
	mTicks         *obs.Counter
	mTickErrs      *obs.Counter
	mTickDur       *obs.Histogram
	mPushErrs      *obs.Counter
	mReports       *obs.Counter
	mReportErrs    *obs.Counter
	mEpochGaps     *obs.Counter
	mTableVer      *obs.Gauge
	mIterHolds     *obs.Gauge
	mReverts       *obs.Gauge
	mWarmSolves    *obs.Gauge
	mColdSolves    *obs.Gauge
	mShards        *obs.Gauge
	mSubSolves     *obs.Gauge
	mSkipSolves    *obs.Gauge
	mSearchWins    *obs.Gauge
	mSimplexWins   *obs.Gauge
	mGapAbandons   *obs.Gauge
	mStaleGroups   *obs.Gauge
	mLeader        *obs.Gauge
	mLeaseEpoch    *obs.Gauge
	mFailovers     *obs.Counter
	mStepDowns     *obs.Counter
	mSnapFetches   *obs.Counter
	mSnapRestores  *obs.Counter
	mEventBreaches *obs.Counter
	mEventSolves   *obs.Counter
	mPushDur       *obs.HistogramVec
	mPatchBytes    *obs.CounterVec
	mResyncs       *obs.CounterVec
}

// NewGlobal wraps a core controller as a daemon, instrumenting into
// obs.Default().
func NewGlobal(ctrl *core.Controller) *Global {
	reg := obs.Default()
	g := &Global{
		ctrl:     ctrl,
		clusters: make(map[topology.ClusterID]string),
		pushSem:  make(chan struct{}, 1),
		sent:     make(map[topology.ClusterID]shadow),
		client:   &http.Client{Timeout: 10 * time.Second},
		eventCh:  make(chan struct{}, 1),
		now:      time.Now,
		metricsH: reg.Handler(),
		mTicks: reg.Counter("slate_global_ticks_total",
			"Optimization ticks run (including failed ones)."),
		mTickErrs: reg.Counter("slate_global_tick_errors_total",
			"Optimization ticks that returned an error."),
		mTickDur: reg.Histogram("slate_global_tick_seconds",
			"Wall time of one optimization tick (merge + solve + push).", nil),
		mPushErrs: reg.Counter("slate_global_push_errors_total",
			"Rule pushes to cluster controllers that failed."),
		mReports: reg.Counter("slate_global_reports_total",
			"Telemetry reports accepted from cluster controllers."),
		mReportErrs: reg.Counter("slate_global_report_errors_total",
			"Telemetry reports rejected as malformed."),
		mEpochGaps: reg.Counter("slate_global_report_epoch_gaps_total",
			"Delta telemetry reports rejected for an epoch gap (cluster must resync)."),
		mTableVer: reg.Gauge("slate_global_table_version",
			"Version of the routing table currently published."),
		mIterHolds: reg.Gauge("slate_global_iter_limit_holds",
			"Cumulative ticks that held the previous table because the solver hit its iteration budget."),
		mReverts: reg.Gauge("slate_global_rule_reverts",
			"Cumulative ticks that reverted to a safe table."),
		mWarmSolves: reg.Gauge("slate_global_lp_warm_solves",
			"Cumulative LP solves that reused the previous basis."),
		mColdSolves: reg.Gauge("slate_global_lp_cold_solves",
			"Cumulative LP solves from scratch."),
		mShards: reg.Gauge("slate_global_subproblems",
			"Independent optimizer subproblems (1 when the app is not decomposed)."),
		mSubSolves: reg.Gauge("slate_global_subproblem_solves",
			"Cumulative decomposed subproblem solves actually run."),
		mSkipSolves: reg.Gauge("slate_global_subproblem_skips",
			"Cumulative subproblem solves skipped because inputs were unchanged."),
		mSearchWins: reg.Gauge("slate_global_search_solves",
			"Cumulative dirty-shard solves served by the anytime local search."),
		mSimplexWins: reg.Gauge("slate_global_search_simplex_wins",
			"Cumulative raced solves where the search lost and the simplex ran."),
		mGapAbandons: reg.Gauge("slate_global_search_gap_abandoned",
			"Cumulative search candidates rejected (infeasible or beyond the configured gap)."),
		mStaleGroups: reg.Gauge("slate_global_pending_reports",
			"Clusters that reported telemetry not yet merged by a tick."),
		mLeader: reg.Gauge("slate_global_is_leader",
			"1 when this replica holds the leader lease (or runs unreplicated)."),
		mLeaseEpoch: reg.Gauge("slate_global_lease_epoch",
			"Leader-lease epoch this replica last campaigned with."),
		mFailovers: reg.Counter("slate_global_leader_elections_won_total",
			"Elections this replica won (transitions into leadership)."),
		mStepDowns: reg.Counter("slate_global_leader_stepdowns_total",
			"Times this replica relinquished leadership after a fencing rejection."),
		mSnapFetches: reg.Counter("slate_global_snapshot_fetches_total",
			"Leader warm-state snapshots fetched while following."),
		mSnapRestores: reg.Counter("slate_global_snapshot_restores_total",
			"Cached snapshots restored on winning an election."),
		mEventBreaches: reg.Counter("slate_global_event_breaches_total",
			"Telemetry reports whose load swing armed an event-driven re-solve."),
		mEventSolves: reg.Counter("slate_global_event_solves_total",
			"Immediate re-solves run outside the scheduled tick."),
		mPushDur: reg.HistogramVec("slate_global_push_seconds",
			"Wall time of one rule push to a cluster controller.", nil, "cluster"),
		mPatchBytes: reg.CounterVec("slate_global_patch_bytes_total",
			"Rule-push payload bytes sent, by destination cluster.", "cluster"),
		mResyncs: reg.CounterVec("slate_global_push_resyncs_total",
			"Rule pushes that fell back to a full-table resync after a version gap.", "cluster"),
	}
	for i := range g.ingest {
		g.ingest[i].clusters = make(map[topology.ClusterID]*clusterIngest)
	}
	return g
}

// stripe returns the ingest lock stripe owning a cluster's telemetry.
func (g *Global) stripe(c topology.ClusterID) *ingestStripe {
	h := fnv.New32a()
	h.Write([]byte(c))
	return &g.ingest[h.Sum32()%ingestStripes]
}

// SetTransport swaps the HTTP transport used for rule pushes (fault
// injection, tests). Call before Run.
func (g *Global) SetTransport(rt http.RoundTripper) {
	g.client.Transport = rt
}

// Handler returns the daemon's HTTP API.
func (g *Global) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/register", g.handleRegister)
	mux.HandleFunc("POST /v1/metrics", g.handleMetrics)
	mux.HandleFunc("POST /v1/optimize", g.handleOptimize)
	mux.HandleFunc("GET /v1/table", g.handleTable)
	mux.HandleFunc("GET /v1/status", g.handleStatus)
	mux.HandleFunc("GET /v1/health", g.handleHealth)
	mux.HandleFunc("GET /v1/snapshot", g.handleSnapshot)
	mux.Handle("GET "+obs.MetricsPath, g.metricsH)
	return mux
}

func (g *Global) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Cluster == "" || req.URL == "" {
		http.Error(w, "cluster and url required", http.StatusBadRequest)
		return
	}
	g.mu.Lock()
	g.clusters[req.Cluster] = req.URL
	g.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// handleMetrics ingests one telemetry report into the cluster's striped
// state. Full reports replace the cluster's window outright; delta
// reports fold changed stats in and delete removed keys, but only when
// their epoch is the exact successor of the last applied one — any gap
// (lost report, global restart) gets 409 so the cluster resyncs. A report
// naming no cluster or carrying a negative rate gets 400 and leaves the
// window as it was: negative demand would fail every tick until re-reported.
func (g *Global) handleMetrics(w http.ResponseWriter, r *http.Request) {
	body := reportBodies.Get().(*bytes.Buffer)
	defer reportBodies.Put(body)
	body.Reset()
	var rep MetricsReport
	_, err := body.ReadFrom(r.Body)
	if err == nil {
		err = json.Unmarshal(body.Bytes(), &rep)
	}
	if err == nil && rep.Cluster == "" {
		err = errors.New("report names no cluster")
	}
	for i := 0; err == nil && i < len(rep.Stats); i++ {
		if rep.Stats[i].RPS < 0 {
			err = fmt.Errorf("negative rps for %v", rep.Stats[i].Key)
		}
	}
	if err != nil {
		g.mReportErrs.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if rep.WindowMS > 0 {
		g.mu.Lock()
		g.window = time.Duration(rep.WindowMS) * time.Millisecond
		g.mu.Unlock()
	}
	st := g.stripe(rep.Cluster)
	st.mu.Lock()
	ci := st.clusters[rep.Cluster]
	if rep.Delta {
		if ci == nil || rep.Epoch != ci.epoch+1 {
			st.mu.Unlock()
			g.mEpochGaps.Inc()
			http.Error(w, "epoch gap: full report required", http.StatusConflict)
			return
		}
		ci.stats = foldDelta(ci.stats, rep.Stats, rep.Removed)
	} else {
		if ci == nil {
			ci = &clusterIngest{}
			st.clusters[rep.Cluster] = ci
			at, _ := slices.BinarySearch(st.ids, rep.Cluster)
			st.ids = slices.Insert(st.ids, at, rep.Cluster)
		}
		ci.stats = sortWindow(rep.Stats)
	}
	ci.epoch = rep.Epoch
	if !ci.reported {
		ci.reported = true
		g.mStaleGroups.Set(float64(g.pendingClusters.Add(1)))
	}
	// Event-driven re-solve trigger: compare the reconstructed window's
	// total load against the previous report's. The window is in key order,
	// so the total (and a near-threshold breach) never depends on arrival order.
	lastRPS := ci.lastRPS
	var curRPS float64
	for i := range ci.stats {
		curRPS += ci.stats[i].RPS
	}
	ci.lastRPS = curRPS
	st.mu.Unlock()
	g.mReports.Inc()
	g.noteClusterLoad(lastRPS, curRPS)
	w.WriteHeader(http.StatusAccepted)
}

// sortWindow puts reported stats into telemetry.Sorted shape in place:
// key order, one stat per key, the last reported winning.
func sortWindow(ws []telemetry.WindowStats) []telemetry.WindowStats {
	if telemetry.Sorted(ws) {
		return ws
	}
	slices.Reverse(ws) // the stable sort then puts each key's last report first
	slices.SortStableFunc(ws, func(a, b telemetry.WindowStats) int { return a.Key.Compare(b.Key) })
	return slices.CompactFunc(ws, func(a, b telemetry.WindowStats) bool { return a.Key == b.Key })
}

// statVsKey orders a window's stat against a key, for binary search.
func statVsKey(s telemetry.WindowStats, k telemetry.MetricKey) int { return s.Key.Compare(k) }

// foldDelta applies a delta report to a cluster's window: changed stats
// overwrite their entry or join (only that re-sorts), then removed keys leave.
func foldDelta(window, changed []telemetry.WindowStats, removed []telemetry.MetricKey) []telemetry.WindowStats {
	known := window // new keys are appended behind it, out of order
	for _, ws := range changed {
		if i, ok := slices.BinarySearchFunc(known, ws.Key, statVsKey); ok {
			window[i] = ws
		} else {
			window = append(window, ws)
		}
	}
	window = sortWindow(window)
	for _, k := range removed {
		if i, ok := slices.BinarySearchFunc(window, k, statVsKey); ok {
			window = slices.Delete(window, i, i+1)
		}
	}
	return window
}

// snapshotIngest collects the reconstructed windows of every cluster
// that reported since the last tick and clears the reported marks.
// Windows are retained so the next delta has a base; clusters that
// stay silent simply contribute nothing, which lets the controller's
// demand estimate decay exactly as it did with full fan-in.
//
// Clusters are visited in sorted order within each stripe and windows
// are in key order: they feed float-averaging demand estimation, so both
// orders are visible in the optimizer input. The groups are copies: the
// next delta overwrites a window in place.
func (g *Global) snapshotIngest() [][]telemetry.WindowStats {
	var groups [][]telemetry.WindowStats
	for i := range g.ingest {
		st := &g.ingest[i]
		st.mu.Lock()
		for _, id := range st.ids {
			ci := st.clusters[id]
			if !ci.reported {
				continue
			}
			ci.reported = false
			groups = append(groups, slices.Clone(ci.stats))
		}
		st.mu.Unlock()
	}
	g.pendingClusters.Store(0)
	return groups
}

func (g *Global) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if err := g.Tick(r.Context()); err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	g.handleTable(w, r)
}

func (g *Global) handleTable(w http.ResponseWriter, _ *http.Request) {
	g.mu.Lock()
	tab := g.ctrl.Table()
	g.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(tab)
}

func (g *Global) handleStatus(w http.ResponseWriter, _ *http.Request) {
	g.mu.Lock()
	st := Status{
		TableVersion: g.ctrl.Table().Version,
		Rules:        g.ctrl.Table().Len(),
		Demand:       g.ctrl.Demand(),
		Ticks:        g.ticks,
		LastError:    g.lastErr,
	}
	for c := range g.clusters {
		st.Clusters = append(st.Clusters, c)
	}
	g.mu.Unlock()
	// The status payload is wire-visible JSON: emit clusters in a stable
	// order rather than whatever the map range produced.
	sort.Slice(st.Clusters, func(i, j int) bool { return st.Clusters[i] < st.Clusters[j] })
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// Tick merges the telemetry reported since the last tick, runs one
// optimization round, and pushes rule patches to every registered
// cluster controller. The context bounds the rule pushes so shutdown
// (or a cancelled /v1/optimize request) does not hang on a wedged
// cluster controller.
func (g *Global) Tick(ctx context.Context) error {
	start := time.Now()
	groups := g.snapshotIngest()
	g.mu.Lock()
	window := g.window
	if window == 0 {
		window = time.Second
	}
	merged := telemetry.Merge(groups...)
	table, err := g.ctrl.Tick(merged, window)
	g.ticks++
	if err != nil {
		g.lastErr = err.Error()
	} else {
		g.lastErr = ""
	}
	targets := make(map[topology.ClusterID]string, len(g.clusters))
	for c, u := range g.clusters {
		targets[c] = u
	}
	g.mTableVer.Set(float64(g.ctrl.Table().Version))
	g.mIterHolds.Set(float64(g.ctrl.IterLimitHolds()))
	g.mReverts.Set(float64(g.ctrl.Reverts()))
	solves := g.ctrl.OptimizerStats()
	g.mWarmSolves.Set(float64(solves.WarmSolves))
	g.mColdSolves.Set(float64(solves.ColdSolves))
	g.mShards.Set(float64(solves.Shards))
	g.mSubSolves.Set(float64(solves.SubSolves))
	g.mSkipSolves.Set(float64(solves.SkippedSolves))
	g.mSearchWins.Set(float64(solves.SearchSolves))
	g.mSimplexWins.Set(float64(solves.SimplexWins))
	g.mGapAbandons.Set(float64(solves.GapAbandoned))
	g.mStaleGroups.Set(float64(g.pendingClusters.Load()))
	g.mu.Unlock()

	g.mTicks.Inc()
	if err != nil {
		g.mTickErrs.Inc()
		g.mTickDur.Observe(time.Since(start).Seconds())
		return err
	}
	pushErr := g.push(ctx, table, targets)
	if pushErr != nil {
		// Every errored tick counts as a tick error, whichever phase
		// failed: a wedged cluster controller must move
		// slate_global_tick_errors_total, not only the push counter.
		g.mPushErrs.Inc()
		g.mTickErrs.Inc()
	}
	g.mTickDur.Observe(time.Since(start).Seconds())
	return pushErr
}

// push distributes the table incrementally: for each cluster it diffs
// the cluster's slice of the table against the last acknowledged push
// and sends only the changed rules, fanning out concurrently with
// bounded parallelism so one slow peer does not stall the rest. An
// empty patch is still sent — it confirms the table version and renews
// the proxies' staleness TTL downstream. A 409 from the cluster
// (version gap: it restarted or missed a push) triggers an immediate
// full-table resync.
func (g *Global) push(ctx context.Context, table *routing.Table, targets map[topology.ClusterID]string) error {
	g.pushSem <- struct{}{}
	defer func() { <-g.pushSem }()

	sem := make(chan struct{}, pushParallelism)
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	for c, u := range targets {
		wg.Add(1)
		sem <- struct{}{}
		go func(c topology.ClusterID, u string) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := g.pushOne(ctx, c, u, table); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("push to %s: %w", c, err)
				}
				errMu.Unlock()
			}
		}(c, u)
	}
	wg.Wait()
	return firstErr
}

// pushOne sends one cluster its rule patch, resyncing with a full patch
// on a version gap. The shadow of what the cluster acknowledged only
// advances on success, so a failed push is retried as a (larger) patch
// next tick.
func (g *Global) pushOne(ctx context.Context, c topology.ClusterID, u string, table *routing.Table) error {
	start := time.Now()
	defer func() {
		g.mPushDur.With(string(c)).Observe(time.Since(start).Seconds())
	}()

	g.sentMu.Lock()
	prev := g.sent[c]
	g.sentMu.Unlock()

	// A shadow cut from this very table object (tables are immutable)
	// needs no restrict-and-diff: the patch is the empty keep-alive.
	desired := prev.slice
	patch := &routing.Patch{FromVersion: table.Version, Version: table.Version}
	if prev.from != table {
		desired = table.Restrict(c)
		patch = routing.MakePatch(prev.slice, desired)
	}
	if err := g.postPatch(ctx, c, u, patch); err != nil {
		code, ok := statusCode(err)
		switch {
		case ok && code == http.StatusConflict && rejectReason(err) != "":
			// Fenced out: the cluster promised a higher lease epoch (or a
			// newer table) to another replica. Resyncing would be exactly
			// the deposed-leader overwrite the fence exists to stop — step
			// down and let the next campaign sort out who leads.
			g.stepDown(rejectReason(err))
			return err
		case ok && code == http.StatusConflict:
			// The cluster is not at the version we believe it is (it
			// restarted, or a push went missing): resync in full.
			g.mResyncs.With(string(c)).Inc()
			if err := g.postPatch(ctx, c, u, routing.FullPatch(desired)); err != nil {
				return err
			}
		default:
			return err
		}
	}
	g.sentMu.Lock()
	g.sent[c] = shadow{slice: desired, from: table}
	g.sentMu.Unlock()
	return nil
}

// postPatch marshals and posts one patch, accounting its wire bytes.
// Replicated pushes carry the leader's lease epoch so acceptors can
// fence out a deposed leader.
func (g *Global) postPatch(ctx context.Context, c topology.ClusterID, u string, p *routing.Patch) error {
	body, err := json.Marshal(p)
	if err != nil {
		return err
	}
	g.mPatchBytes.With(string(c)).Add(uint64(len(body)))
	return postJSONHeaders(ctx, g.client, u+"/v1/patch", body, g.publisherHeaders())
}

// Run steps the controller until the context is cancelled: a scheduled
// HAStep every period — a plain Tick without EnableHA — plus, when
// replicated, immediate event-driven re-solves between steps.
func (g *Global) Run(ctx context.Context, period time.Duration) {
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			g.HAStep(ctx) // errors surface via /v1/status
		case <-g.eventCh:
			g.TryEventSolve(ctx)
		case <-ctx.Done():
			return
		}
	}
}
