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
//	POST global:/v1/metrics    {cluster, window_ms, stats[], delta?, epoch?, removed?, table_version?, leader_epoch?}
//	GET  global:/v1/table                              current rules
//	GET  global:/v1/status                             demand, version
//	POST cluster:/v1/patch     routing.Patch           incremental rule push
//	GET  cluster:/v1/rules[?since=N]                   routing.Patch: full, or since version N
//	GET  cluster:/v1/stats                             local window peek
//
// A POST whose body is longer than maxBodyBytes gets 413 and changes
// nothing.
//
// Rule distribution is incremental: the global controller keeps a
// per-cluster shadow of the last acknowledged table slice and pushes
// only the changed rules (routing.Patch) to each cluster, concurrently
// with bounded parallelism. A cluster that answers 409 (version gap —
// e.g. it restarted) is resynced with a full patch. A report names the
// table version and leader epoch its cluster runs; when that is what
// this replica's newest push round gave it, the answer is 200 instead
// of 202, the cluster renews its proxies' rules on it, and the round
// sends that cluster nothing. Telemetry ingest is
// likewise incremental: cluster controllers upload only changed
// (service, class) aggregates with a monotonically increasing epoch;
// an epoch gap makes the global answer 409, which tells the cluster to
// fall back to a full report.
package controlplane

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/obs"
	"github.com/servicelayernetworking/slate/internal/par"
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
	// TableVersion and LeaderEpoch are the routing table version and
	// the fenced leader epoch the cluster runs as it reports. The global
	// answers 200 when they show the cluster runs what its newest push
	// round sent there.
	TableVersion uint64 `json:"table_version,omitempty"`
	LeaderEpoch  uint64 `json:"leader_epoch,omitempty"`
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

// pushParallelism bounds the concurrent rule pushes per tick: enough to
// overlap slow peers, small enough not to stampede the network.
const pushParallelism = 8

// clusterIngest is the global controller's telemetry state for one
// cluster: the reconstructed full window (deltas folded in), kept
// telemetry.Sorted, and the epoch of the last applied report.
type clusterIngest struct {
	id       topology.ClusterID
	epoch    uint64
	stats    []telemetry.WindowStats
	reported bool // reported since the last tick merged this cluster
}

// shadow is what one cluster last acknowledged: its slice of the rules,
// the published table that slice was cut from, and the leader epoch the
// push carried (0 without EnableHA). renewed marks a report answered 200
// since a push round last looked at the cluster.
type shadow struct {
	slice, from *routing.Table
	epoch       uint64
	renewed     bool
}

// Global is the Global Controller daemon: an HTTP API around
// core.Controller plus incremental rule push-down to registered cluster
// controllers.
type Global struct {
	mu       sync.Mutex
	ctrl     *core.Controller
	clusters []peer // in cluster order; replaced whole, so a push round reads its copy unlocked
	ticks    uint64
	lastErr  string
	rt       http.RoundTripper

	// ingestMu guards the telemetry ingest: one lock for every cluster,
	// whose reports arrive once a period each and already serialize on
	// names' mutex while they decode.
	ingestMu sync.Mutex
	ingest   []*clusterIngest // in cluster order
	window   time.Duration    // of the last accepted report, 1 s before any
	pending  int              // clusters reported since the last merge
	names    internTable      // key strings of decoded reports

	// Replication state (EnableHA; see ha.go). Guarded by mu.
	haEnabled    bool
	replica      string
	leaseTTL     time.Duration
	isLeader     bool
	leaseEpoch   uint64
	maxSeenEpoch uint64
	leaderURL    string
	snapCache    *core.ControllerSnapshot
	// snapURL is where a follower fetches the leader's snapshot, parsed
	// once from snapFrom, the leader URL it was last derived from.
	snapFrom string
	snapURL  *url.URL

	// pushSem (capacity 1) serializes whole push rounds — a semaphore
	// rather than a mutex because a round blocks until its fan-out's
	// pushes return; sentMu guards the per-cluster shadow of the last
	// acknowledged table slice and published, the table of the newest
	// push round (nil before one, and once the replica stops leading).
	pushSem   chan struct{}
	sentMu    sync.Mutex
	sent      map[topology.ClusterID]shadow
	published *routing.Table

	metricsH      http.Handler
	mTicks        *obs.Counter
	mTickErrs     *obs.Counter
	mTickDur      *obs.Histogram
	mPushErrs     *obs.Counter
	mPushSkips    *obs.Counter
	mReports      *obs.Counter
	mReportErrs   *obs.Counter
	mEpochGaps    *obs.Counter
	mTableVer     *obs.Gauge
	mIterHolds    *obs.Gauge
	mReverts      *obs.Gauge
	mWarmSolves   *obs.Gauge
	mKeptSolves   *obs.Gauge
	mDualRepairs  *obs.Gauge
	mColdSolves   *obs.Gauge
	mShards       *obs.Gauge
	mSubSolves    *obs.Gauge
	mSkipSolves   *obs.Gauge
	mSearchWins   *obs.Gauge
	mSimplexWins  *obs.Gauge
	mGapAbandons  *obs.Gauge
	mStaleGroups  *obs.Gauge
	mLeader       *obs.Gauge
	mLeaseEpoch   *obs.Gauge
	mFailovers    *obs.Counter
	mStepDowns    *obs.Counter
	mSnapFetches  *obs.Counter
	mSnapRestores *obs.Counter
	mPushDur      *obs.HistogramVec
	mPatchBytes   *obs.CounterVec
	mResyncs      *obs.CounterVec
}

// NewGlobal wraps a core controller as a daemon, instrumenting into
// obs.Default().
func NewGlobal(ctrl *core.Controller) *Global {
	reg := obs.Default()
	g := &Global{
		ctrl:     ctrl,
		pushSem:  make(chan struct{}, 1),
		sent:     make(map[topology.ClusterID]shadow),
		rt:       NewTransport(),
		window:   time.Second,
		metricsH: reg.Handler(),
		mTicks: reg.Counter("slate_global_ticks_total",
			"Optimization ticks run (including failed ones)."),
		mTickErrs: reg.Counter("slate_global_tick_errors_total",
			"Optimization ticks that returned an error."),
		mTickDur: reg.Histogram("slate_global_tick_seconds",
			"Wall time of one optimization tick (merge + solve + push).", nil),
		mPushErrs: reg.Counter("slate_global_push_errors_total",
			"Rule pushes to cluster controllers that failed."),
		mPushSkips: reg.Counter("slate_global_pushes_skipped_total",
			"Rule pushes not sent because the cluster's report was answered 200 for the round's table."),
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
		mKeptSolves: reg.Gauge("slate_global_lp_kept_solves",
			"Cumulative warm LP solves that resumed from the tableau kept from the previous solve instead of installing the basis."),
		mDualRepairs: reg.Gauge("slate_global_lp_dual_repairs",
			"Cumulative warm LP solves whose basis demand left infeasible and dual simplex pivots repaired."),
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
		mPushDur: reg.HistogramVec("slate_global_push_seconds",
			"Wall time of one rule push to a cluster controller.", nil, "cluster"),
		mPatchBytes: reg.CounterVec("slate_global_patch_bytes_total",
			"Rule-push payload bytes sent, by destination cluster.", "cluster"),
		mResyncs: reg.CounterVec("slate_global_push_resyncs_total",
			"Rule pushes that fell back to a full-table resync after a version gap.", "cluster"),
	}
	return g
}

// SetTransport swaps the HTTP transport used for rule pushes, lease
// requests and snapshot fetches (fault injection, tests), by default a
// NewTransport of this Global's own. Call before Run.
func (g *Global) SetTransport(rt http.RoundTripper) {
	g.rt = rt
}

// Handler returns the daemon's HTTP API.
func (g *Global) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/register", g.handleRegister)
	mux.HandleFunc("POST /v1/metrics", g.handleMetrics)
	mux.HandleFunc("GET /v1/table", g.handleTable)
	mux.HandleFunc("GET /v1/status", g.handleStatus)
	mux.HandleFunc("GET /v1/health", g.handleHealth)
	mux.HandleFunc("GET /v1/snapshot", g.handleSnapshot)
	mux.Handle("GET "+obs.MetricsPath, g.metricsH)
	return mux
}

func (g *Global) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := decodeBody(r, &req); err != nil {
		badBody(w, err)
		return
	}
	if req.Cluster == "" || req.URL == "" {
		http.Error(w, "cluster and url required", http.StatusBadRequest)
		return
	}
	g.mu.Lock()
	ps, err := register(g.clusters, req.Cluster, req.URL)
	if err == nil {
		g.clusters = ps
	}
	g.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// peer is one registered cluster controller at base URL base, with the
// endpoints the global calls joined and parsed once, at registration.
type peer struct {
	id                 topology.ClusterID
	base               string
	patchURL, leaseURL *url.URL
}

// register returns ps, which is in cluster order, with cluster id at
// base URL base, or an error if an endpoint of base does not parse. A
// change is made on a copy: a push round may still be reading ps.
func register(ps []peer, id topology.ClusterID, base string) ([]peer, error) {
	i, found := slices.BinarySearchFunc(ps, id, func(p peer, id topology.ClusterID) int { return cmp.Compare(p.id, id) })
	if found && ps[i].base == base {
		return ps, nil // a cluster re-registering each period changes nothing
	}
	p := peer{id: id, base: base}
	var err error
	if p.patchURL, err = url.Parse(base + "/v1/patch"); err != nil {
		return ps, err
	}
	if p.leaseURL, err = url.Parse(base + "/v1/lease"); err != nil {
		return ps, err
	}
	ps = slices.Clone(ps)
	if found {
		ps[i] = p
		return ps, nil
	}
	return slices.Insert(ps, i, p), nil
}

// handleMetrics ingests one telemetry report. Full reports replace the
// cluster's window outright; delta reports fold changed stats in and
// delete removed keys, but only when their epoch is the exact successor
// of the last applied one — any gap (lost report, global restart) gets
// 409 so the cluster resyncs. A report naming no cluster, or carrying a
// negative rate or a stat keyed to another cluster, gets 400 (checkRates,
// checkKeys). A refused report leaves the ingest as it was, window
// length included. An accepted report gets 202, or 200 from answer.
func (g *Global) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var rep MetricsReport
	err := readBody(r.Body, r.ContentLength, func(b []byte) error { return decodeReport(b, &rep, &g.names) })
	if err == nil && rep.Cluster == "" {
		err = errors.New("report names no cluster")
	}
	if err == nil {
		err = checkRates(rep.Stats)
	}
	if err == nil {
		err = checkKeys(rep.Cluster, rep.Stats)
	}
	if err != nil {
		g.mReportErrs.Inc()
		badBody(w, err)
		return
	}
	g.ingestMu.Lock()
	at, found := slices.BinarySearchFunc(g.ingest, rep.Cluster, func(ci *clusterIngest, c topology.ClusterID) int { return cmp.Compare(ci.id, c) })
	switch {
	case rep.Delta && (!found || rep.Epoch != g.ingest[at].epoch+1):
		g.ingestMu.Unlock()
		g.mEpochGaps.Inc()
		http.Error(w, "epoch gap: full report required", http.StatusConflict)
		return
	case !found:
		g.ingest = slices.Insert(g.ingest, at, &clusterIngest{id: rep.Cluster})
	}
	ci := g.ingest[at]
	if rep.Delta {
		ci.stats = foldDelta(ci.stats, rep.Stats, rep.Removed)
	} else {
		ci.stats = sortWindow(rep.Stats)
	}
	ci.epoch = rep.Epoch
	if rep.WindowMS > 0 {
		g.window = time.Duration(rep.WindowMS) * time.Millisecond
	}
	if !ci.reported {
		ci.reported = true
		g.pending++
		g.mStaleGroups.Set(float64(g.pending))
	}
	g.ingestMu.Unlock()
	g.mReports.Inc()
	w.WriteHeader(g.answer(&rep))
}

// answer is the status of an accepted report: 200 when the table
// version and leader epoch it names are what this replica last pushed
// to the cluster, in its newest push round, and 202 otherwise. A 200
// renews the cluster's rules as the round's empty push would, so it
// marks the shadow for push to skip. It takes sentMu only: a report
// never waits for a tick.
func (g *Global) answer(rep *MetricsReport) int {
	g.sentMu.Lock()
	defer g.sentMu.Unlock()
	s, ok := g.sent[rep.Cluster]
	if !ok || s.from != g.published || s.from.Version != rep.TableVersion || s.epoch != rep.LeaderEpoch {
		return http.StatusAccepted
	}
	s.renewed = true
	g.sent[rep.Cluster] = s
	return http.StatusOK
}

// checkRates refuses stats carrying a negative rate, which as demand
// would fail every tick until the cluster reported again.
func checkRates(stats []telemetry.WindowStats) error {
	for i := range stats {
		if stats[i].RPS < 0 {
			return fmt.Errorf("negative rps for %v", stats[i].Key)
		}
	}
	return nil
}

// checkKeys refuses stats keyed to a cluster other than c, the
// reporter: the merge would add their rates to that cluster's demand.
// A cluster controller stamps its own ID on every key it reports.
func checkKeys(c topology.ClusterID, stats []telemetry.WindowStats) error {
	for i := range stats {
		if k := stats[i].Key; k.Cluster != string(c) {
			return fmt.Errorf("cluster %s reported a stat of cluster %q: %v", c, k.Cluster, k)
		}
	}
	return nil
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

// search finds key k in window, which is in key order, or where it goes.
// It compares in place: slices.BinarySearchFunc copies each stat it visits.
func search(window []telemetry.WindowStats, k telemetry.MetricKey) (int, bool) {
	i := sort.Search(len(window), func(j int) bool { return window[j].Key.Compare(k) >= 0 })
	return i, i < len(window) && window[i].Key == k
}

// foldDelta applies a delta report to a cluster's window: changed stats
// overwrite their entry or join (only that re-sorts), then removed keys leave.
func foldDelta(window, changed []telemetry.WindowStats, removed []telemetry.MetricKey) []telemetry.WindowStats {
	known := window // new keys are appended behind it, out of order
	for _, ws := range changed {
		if i, ok := search(known, ws.Key); ok {
			window[i] = ws
		} else {
			window = append(window, ws)
		}
	}
	if len(window) > len(known) {
		window = sortWindow(window)
	}
	for _, k := range removed {
		if i, ok := search(window, k); ok {
			window = slices.Delete(window, i, i+1)
		}
	}
	return window
}

// mergeIngest merges, under the ingest lock, the retained windows of the
// clusters that reported since the last merge, and returns the merge
// with the window length of the last accepted report (1 s before any).
// Clusters that stay silent contribute nothing, so the controller's
// demand estimate decays as it did with full fan-in. No key is in two
// windows (checkKeys), so the merge does not depend on cluster order.
func (g *Global) mergeIngest() ([]telemetry.WindowStats, time.Duration) {
	g.ingestMu.Lock()
	defer g.ingestMu.Unlock()
	var groups [][]telemetry.WindowStats
	for _, ci := range g.ingest {
		if ci.reported {
			ci.reported = false
			groups = append(groups, ci.stats)
		}
	}
	g.pending = 0
	g.mStaleGroups.Set(0)
	return telemetry.Merge(groups...), g.window
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
		Demand:       make(map[string]map[topology.ClusterID]float64),
		Ticks:        g.ticks,
		LastError:    g.lastErr,
	}
	// The estimate is the controller's live map, which every tick folds
	// telemetry into in place: encode a copy, taken under g.mu.
	for class, byCluster := range g.ctrl.Demand() {
		st.Demand[class] = maps.Clone(byCluster)
	}
	for _, p := range g.clusters {
		st.Clusters = append(st.Clusters, p.id)
	}
	g.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// Tick merges the telemetry reported since the last tick, runs one
// optimization round, and pushes rule patches to every registered
// cluster controller. The context bounds the rule pushes so shutdown
// does not hang on a wedged cluster controller.
func (g *Global) Tick(ctx context.Context) error {
	start := time.Now()
	merged, window := g.mergeIngest()
	g.mu.Lock()
	table, err := g.ctrl.Tick(merged, window)
	g.ticks++
	if err != nil {
		g.lastErr = err.Error()
	} else {
		g.lastErr = ""
	}
	targets := g.clusters
	g.mTableVer.Set(float64(g.ctrl.Table().Version))
	g.mIterHolds.Set(float64(g.ctrl.IterLimitHolds()))
	g.mReverts.Set(float64(g.ctrl.Reverts()))
	solves := g.ctrl.OptimizerStats()
	g.mWarmSolves.Set(float64(solves.WarmSolves))
	g.mKeptSolves.Set(float64(solves.KeptSolves))
	g.mDualRepairs.Set(float64(solves.DualRepairs))
	g.mColdSolves.Set(float64(solves.ColdSolves))
	g.mShards.Set(float64(solves.Shards))
	g.mSubSolves.Set(float64(solves.SubSolves))
	g.mSkipSolves.Set(float64(solves.SkippedSolves))
	g.mSearchWins.Set(float64(solves.SearchSolves))
	g.mSimplexWins.Set(float64(solves.SimplexWins))
	g.mGapAbandons.Set(float64(solves.GapAbandoned))
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
// and sends only the changed rules, on pushParallelism workers that
// take the targets in order, so one slow peer does not stall the rest.
// A cluster whose report was answered 200 for this very table and epoch
// since the last round is skipped: the answer renewed its proxies'
// staleness TTL. Any other cluster still gets the empty patch when
// nothing changed, which confirms the table version and renews the TTL
// downstream. A 409 from the cluster (version gap: it restarted or
// missed a push) triggers an immediate full-table resync. Of several
// failures, the first target's is returned.
func (g *Global) push(ctx context.Context, table *routing.Table, targets []peer) error {
	g.pushSem <- struct{}{}
	defer func() { <-g.pushSem }()

	hdr, epoch := g.publisher()
	g.sentMu.Lock()
	g.published = table
	g.sentMu.Unlock()
	errs := make([]error, len(targets))
	par.Each(len(targets), pushParallelism, func(_, i int) error {
		errs[i] = g.pushOne(ctx, &targets[i], table, hdr, epoch)
		return nil // one wedged cluster stops no push to the others
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("push to %s: %w", targets[i].id, err)
		}
	}
	return nil
}

// pushOne sends one cluster its rule patch with header hdr, which
// carries leader epoch epoch, resyncing with a full patch on a version
// gap. The shadow of what the cluster acknowledged only advances on
// success, so a failed push is retried as a (larger) patch next tick.
func (g *Global) pushOne(ctx context.Context, t *peer, table *routing.Table, hdr http.Header, epoch uint64) error {
	c := t.id
	g.sentMu.Lock()
	prev := g.sent[c]
	renewed := prev.renewed && prev.from == table && prev.epoch == epoch
	if prev.renewed {
		prev.renewed = false
		g.sent[c] = prev
	}
	g.sentMu.Unlock()
	if renewed {
		g.mPushSkips.Inc()
		return nil
	}

	start := time.Now()
	defer func() {
		g.mPushDur.With(string(c)).Observe(time.Since(start).Seconds())
	}()
	// A shadow cut from this very table object (tables are immutable)
	// needs no restrict-and-diff: the patch is the empty keep-alive.
	desired := prev.slice
	patch := &routing.Patch{FromVersion: table.Version, Version: table.Version}
	if prev.from != table {
		desired = table.Restrict(c)
		patch = routing.MakePatch(prev.slice, desired)
	}
	if err := g.postPatch(ctx, t, patch, hdr); err != nil {
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
			if err := g.postPatch(ctx, t, routing.FullPatch(desired), hdr); err != nil {
				return err
			}
		default:
			return err
		}
	}
	g.sentMu.Lock()
	g.sent[c] = shadow{slice: desired, from: table, epoch: epoch}
	g.sentMu.Unlock()
	return nil
}

// postPatch marshals and posts one patch, accounting its wire bytes.
func (g *Global) postPatch(ctx context.Context, t *peer, p *routing.Patch, hdr http.Header) error {
	body, err := json.Marshal(p)
	if err != nil {
		return err
	}
	g.mPatchBytes.With(string(t.id)).Add(uint64(len(body)))
	return rpc(ctx, g.rt, http.MethodPost, t.patchURL, hdr, body, nil)
}

// Run steps the controller until the context is cancelled: one HAStep
// every period, a plain Tick without EnableHA. The period is the only
// trigger; a report never starts a solve.
func (g *Global) Run(ctx context.Context, period time.Duration) {
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			g.HAStep(ctx) // errors surface via /v1/status
		case <-ctx.Done():
			return
		}
	}
}
