package controlplane

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"github.com/servicelayernetworking/slate/internal/dataplane"
	"github.com/servicelayernetworking/slate/internal/obs"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// Cluster is the Cluster Controller daemon for one cluster: it
// aggregates telemetry from the cluster's SLATE-proxies, tags it with
// the cluster ID (instances don't know which cluster they belong to —
// paper §3.2), relays it to the Global Controller, and fans rule pushes
// out to every proxy.
//
// Telemetry a sidecar pushes between two Collects is merged into the
// next one's window, whatever its age: a sidecar reports each window
// once, in the period it measured it, and drops a window it could not
// push (Agent).
type Cluster struct {
	id topology.ClusterID

	mu       sync.Mutex
	proxies  []*dataplane.Proxy
	ingested [][]telemetry.WindowStats // pushed batches since the last Collect
	last     []telemetry.WindowStats
	table    *routing.Table
	history  []*routing.Table // superseded tables, oldest first

	// ups are the global-controller replicas this cluster reports to.
	// Each carries its own delta-report state (last acked window, report
	// epoch, full-resync flag) so replicas reconstruct windows
	// independently and a failover lands on a warm ingest. It only grows
	// by append, so a copy of the slice taken under mu stays valid.
	ups []*upstream
	// self is the URL Register announced this controller at; Run
	// announces it again to every replica each period.
	self string

	// Leader-lease acceptor state. Global replicas contend for leadership
	// by acquiring a TTL lease from a majority of cluster controllers;
	// this cluster remembers who holds its vote and until when. pubEpoch
	// fences rule pushes (Paxos-promise style): granting a lease at epoch
	// E commits this cluster to rejecting any push with an epoch below E,
	// so a deposed leader's stale table can never land here — even as a
	// "full resync" — regardless of message reordering.
	leaseHolder  string
	leaseEpoch   uint64
	leaseExpires time.Time
	pubEpoch     uint64

	rt  http.RoundTripper
	now func() time.Time

	metricsH      http.Handler
	mIngested     *obs.Counter
	mIngestErrs   *obs.Counter
	mReports      *obs.Counter
	mReportErrs   *obs.Counter
	mPatches      *obs.Counter
	mRenewals     *obs.Counter
	mPatchGaps    *obs.Counter
	mStaleRejects *obs.Counter
	mLeaseEpoch   *obs.Gauge
	mTableVer     *obs.Gauge
}

// upstream is one global-controller replica this cluster reports to,
// with its private delta-report state.
type upstream struct {
	url string
	// metricsURL and registerURL are the replica's endpoints, parsed
	// once; err is the parse error of either, which every RPC to the
	// replica returns instead.
	metricsURL, registerURL *url.URL
	err                     error
	lastReport              []telemetry.WindowStats
	epoch                   uint64
	needFull                bool
}

// tableHistoryCap bounds how many superseded tables the controller
// keeps to answer GET /v1/rules?since=N with the changed rules only.
// Pollers further behind get a full patch.
const tableHistoryCap = 8

// NewCluster returns a cluster controller reporting to globalURL (may
// be empty for in-process wiring where the caller pumps telemetry
// itself). Metrics register into obs.Default(), labeled by cluster.
func NewCluster(id topology.ClusterID, globalURL string) *Cluster {
	reg := obs.Default()
	cl := string(id)
	c := &Cluster{
		id:       id,
		table:    routing.EmptyTable(),
		rt:       NewTransport(),
		now:      time.Now,
		metricsH: reg.Handler(),
		mIngested: reg.CounterVec("slate_cluster_ingested_batches_total",
			"Telemetry batches accepted from local proxies.", "cluster").With(cl),
		mIngestErrs: reg.CounterVec("slate_cluster_ingest_errors_total",
			"Telemetry pushes rejected as malformed.", "cluster").With(cl),
		mReports: reg.CounterVec("slate_cluster_reports_total",
			"Window reports uploaded to the global controller.", "cluster").With(cl),
		mReportErrs: reg.CounterVec("slate_cluster_report_errors_total",
			"Window reports that failed to reach the global controller.", "cluster").With(cl),
		mPatches: reg.CounterVec("slate_cluster_patches_applied_total",
			"Incremental rule patches applied.", "cluster").With(cl),
		mRenewals: reg.CounterVec("slate_cluster_rules_renewed_total",
			"Report answers (200) that confirmed the table and renewed the proxies' rules in place of a push.", "cluster").With(cl),
		mPatchGaps: reg.CounterVec("slate_cluster_patch_gaps_total",
			"Rule patches rejected for a version gap (answered 409).", "cluster").With(cl),
		mStaleRejects: reg.CounterVec("slate_cluster_stale_pushes_rejected_total",
			"Rule pushes rejected as fenced: stale leader epoch or older table version.", "cluster").With(cl),
		mLeaseEpoch: reg.GaugeVec("slate_cluster_lease_epoch",
			"Leader-lease epoch this cluster last granted.", "cluster").With(cl),
		mTableVer: reg.GaugeVec("slate_cluster_table_version",
			"Version of the routing table last applied.", "cluster").With(cl),
	}
	if globalURL != "" {
		c.ups = append(c.ups, newUpstream(globalURL))
	}
	return c
}

// AddUpstream registers one more global-controller replica to report
// to. Every upstream receives the same telemetry with independent delta
// state; duplicates are ignored.
func (c *Cluster) AddUpstream(base string) {
	if base == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, up := range c.ups {
		if up.url == base {
			return
		}
	}
	c.ups = append(c.ups, newUpstream(base))
}

func newUpstream(base string) *upstream {
	up := &upstream{url: base}
	if up.metricsURL, up.err = url.Parse(base + "/v1/metrics"); up.err == nil {
		up.registerURL, up.err = url.Parse(base + "/v1/register")
	}
	return up
}

// SetNow swaps the controller's clock (deterministic harnesses, tests).
func (c *Cluster) SetNow(f func() time.Time) {
	c.mu.Lock()
	c.now = f
	c.mu.Unlock()
}

// SetTransport swaps the HTTP transport used for upstream RPCs (fault
// injection, tests), by default a NewTransport of this Cluster's own.
// Call before Run.
func (c *Cluster) SetTransport(rt http.RoundTripper) {
	c.rt = rt
}

// AddProxy registers a local sidecar for telemetry collection and rule
// distribution.
func (c *Cluster) AddProxy(p *dataplane.Proxy) {
	c.mu.Lock()
	c.proxies = append(c.proxies, p)
	p.SetTable(c.table)
	c.mu.Unlock()
}

// Handler returns the daemon's HTTP API.
func (c *Cluster) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/patch", c.handlePatch)
	mux.HandleFunc("POST /v1/lease", c.handleLease)
	mux.HandleFunc("GET /v1/rules", c.handleGetRules)
	mux.HandleFunc("POST /v1/metrics", c.handleMetrics)
	mux.HandleFunc("GET /v1/stats", c.handleStats)
	mux.HandleFunc("GET /v1/health", c.handleHealth)
	mux.Handle("GET "+obs.MetricsPath, c.metricsH)
	return mux
}

// handleGetRules serves routing rules to out-of-process proxies that
// poll (in-process proxies get pushes via AddProxy). The answer is
// always a routing.Patch: with ?since=N, the patch from version N —
// empty when the poller is current, computed from the table history
// when the base is still remembered — and otherwise, or without a
// query, a full patch, which a receiver installs whatever its version.
func (c *Cluster) handleGetRules(w http.ResponseWriter, r *http.Request) {
	sinceStr := r.URL.Query().Get("since")
	since, err := strconv.ParseUint(sinceStr, 10, 64)
	if err != nil && sinceStr != "" {
		http.Error(w, "since must be a table version", http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	pubEpoch := c.pubEpoch
	cur := c.table
	var base *routing.Table
	switch {
	case sinceStr == "":
	case since == cur.Version:
		base = cur
	default:
		for _, old := range c.history {
			if old.Version == since {
				base = old
				break
			}
		}
	}
	c.mu.Unlock()
	if pubEpoch > 0 {
		// Advertise the fenced leader epoch so agents can detect a
		// failover and resync rather than trust a raced incremental poll.
		w.Header().Set(headerLeaderEpoch, strconv.FormatUint(pubEpoch, 10))
	}
	w.Header().Set("Content-Type", "application/json")
	var p *routing.Patch
	if base != nil {
		p = routing.MakePatch(base, cur)
	} else {
		p = routing.FullPatch(cur)
	}
	json.NewEncoder(w).Encode(p)
}

// handleMetrics accepts telemetry pushed by out-of-process proxies (the
// standalone slate-cluster daemon path; in-process proxies are pulled
// via AddProxy instead). A push carrying a negative rate gets 400, the
// global's rule: buffered, it would make the cluster's next report one
// the global refuses, and every service of the cluster would lose the
// window.
func (c *Cluster) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var stats []telemetry.WindowStats
	err := decodeBody(r, &stats)
	if err == nil {
		err = checkRates(stats)
	}
	if err != nil {
		c.mIngestErrs.Inc()
		badBody(w, err)
		return
	}
	c.Ingest(stats)
	w.WriteHeader(http.StatusAccepted)
}

// Ingest buffers externally pushed telemetry for the next Collect.
func (c *Cluster) Ingest(stats []telemetry.WindowStats) {
	c.mu.Lock()
	c.ingested = append(c.ingested, stats)
	c.mu.Unlock()
	c.mIngested.Inc()
}

// Health is the cluster controller's snapshot served at GET
// /v1/health: the table it runs and the lease it granted.
type Health struct {
	Cluster      topology.ClusterID `json:"cluster"`
	TableVersion uint64             `json:"table_version"`
	// LeaderURL and LeaderEpoch describe the global replica holding
	// this cluster's leader-lease vote ("" / 0 without a replicated
	// control plane). PubEpoch is the fence: pushes below it are
	// rejected as coming from a deposed leader.
	LeaderURL   string `json:"leader_url,omitempty"`
	LeaderEpoch uint64 `json:"leader_epoch,omitempty"`
	PubEpoch    uint64 `json:"pub_epoch,omitempty"`
}

func (c *Cluster) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(c.health())
}

// health is the snapshot GET /v1/health serves.
func (c *Cluster) health() Health {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Health{
		Cluster:      c.id,
		TableVersion: c.table.Version,
		LeaderURL:    c.leaseHolder,
		LeaderEpoch:  c.leaseEpoch,
		PubEpoch:     c.pubEpoch,
	}
}

// handlePatch applies an incremental rule push from the global
// controller. A version gap (this controller restarted, or a push went
// missing) answers 409, which makes the global resend a full patch. The
// body is read first; the fence, the CAS and the table swap are then
// decided under one c.mu hold, so no lease grant can slip between them.
func (c *Cluster) handlePatch(w http.ResponseWriter, r *http.Request) {
	var p routing.Patch
	if err := decodeBody(r, &p); err != nil {
		badBody(w, err)
		return
	}
	c.mu.Lock()
	reason, msg := c.admitLocked(r.Header.Get(headerLeaderEpoch), &p)
	var (
		next    *routing.Table
		proxies []*dataplane.Proxy
		err     error
	)
	if reason == "" {
		next, proxies, err = c.applyPatchLocked(&p)
	}
	c.mu.Unlock()
	switch {
	case reason != "":
		c.rejectPush(w, reason, msg)
	case errors.Is(err, routing.ErrVersionGap):
		c.mPatchGaps.Inc()
		http.Error(w, err.Error(), http.StatusConflict)
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		c.fanOutPatch(next, proxies)
		w.WriteHeader(http.StatusNoContent)
	}
}

func (c *Cluster) handleStats(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	stats := c.last
	c.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(stats)
}

// ApplyTable distributes a routing table to every registered proxy.
func (c *Cluster) ApplyTable(t *routing.Table) {
	c.mu.Lock()
	c.recordHistory(t)
	c.table = t
	proxies := append([]*dataplane.Proxy(nil), c.proxies...)
	c.mu.Unlock()
	c.mTableVer.Set(float64(t.Version))
	for _, p := range proxies {
		p.SetTable(t)
	}
}

// ApplyPatch applies an incremental rule push atomically: the new table
// is built from the patch and, only if that succeeds, swapped in and
// fanned out to every proxy. Even a no-op patch fans out — the push
// confirms the table version and renews the proxies' staleness TTL, as
// a report answered 200 does (renew).
func (c *Cluster) ApplyPatch(p *routing.Patch) error {
	c.mu.Lock()
	next, proxies, err := c.applyPatchLocked(p)
	c.mu.Unlock()
	if err != nil {
		return err
	}
	c.fanOutPatch(next, proxies)
	return nil
}

// applyPatchLocked builds the patched table and, only if that succeeds,
// swaps it in, returning it with the proxies to fan it out to once c.mu
// is released. Caller holds c.mu.
func (c *Cluster) applyPatchLocked(p *routing.Patch) (*routing.Table, []*dataplane.Proxy, error) {
	next, err := c.table.Apply(p)
	if err != nil {
		return nil, nil, err
	}
	c.recordHistory(next)
	c.table = next
	return next, append([]*dataplane.Proxy(nil), c.proxies...), nil
}

// fanOutPatch counts an applied patch and hands its table to proxies.
func (c *Cluster) fanOutPatch(next *routing.Table, proxies []*dataplane.Proxy) {
	c.mPatches.Inc()
	c.mTableVer.Set(float64(next.Version))
	for _, pr := range proxies {
		pr.SetTable(next)
	}
}

// recordHistory remembers the current table (bounded ring) so ?since=N
// polls can be answered with a patch, if next supersedes it: a push
// that leaves the table as it is, as an empty keep-alive does, must
// not evict older versions. Caller holds c.mu.
func (c *Cluster) recordHistory(next *routing.Table) {
	if next == c.table {
		return
	}
	c.history = append(c.history, c.table)
	if len(c.history) > tableHistoryCap {
		c.history = c.history[len(c.history)-tableHistoryCap:]
	}
}

// LastStats returns the most recently collected window (for
// introspection; also served at GET /v1/stats).
func (c *Cluster) LastStats() []telemetry.WindowStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

// Table returns the last applied routing table.
func (c *Cluster) Table() *routing.Table {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.table
}

// Collect flushes every proxy's telemetry for the window, merges it,
// and stamps the cluster ID onto every key (the proxies already tag
// their own cluster, but the controller is authoritative — a proxy
// cannot know its cluster in a real deployment).
func (c *Cluster) Collect(window time.Duration) []telemetry.WindowStats {
	c.mu.Lock()
	proxies := append([]*dataplane.Proxy(nil), c.proxies...)
	groups := c.ingested
	c.ingested = nil
	c.mu.Unlock()

	for _, p := range proxies {
		groups = append(groups, p.FlushTelemetry(window))
	}
	merged := telemetry.Merge(groups...)
	for i := range merged {
		merged[i].Key.Cluster = string(c.id)
	}
	if !telemetry.Sorted(merged) { // proxies tagged two clusters: restamped keys collide
		merged = telemetry.Merge(merged)
	}
	c.mu.Lock()
	c.last = merged
	c.mu.Unlock()
	return merged
}

// Report collects one window and uploads it to every registered global
// replica. After the first (full) upload, reports are incremental: only
// the (service, class) aggregates that changed beyond a small relative
// epsilon cross the wire, with an epoch marker so the global can detect
// gaps. Any failure — transport, or a 409 epoch-gap rejection — flags
// that upstream's next report as a full resync, so the protocol
// self-heals without coordination; one unreachable replica does not
// stop the others from staying warm. The context bounds the uploads so
// a daemon shutdown cancels in-flight reports instead of waiting out
// the HTTP timeout. Returns the first error encountered.
func (c *Cluster) Report(ctx context.Context, window time.Duration) error {
	stats := c.Collect(window)
	c.mu.Lock()
	ups := c.ups
	c.mu.Unlock()
	var firstErr error
	for _, up := range ups {
		if err := c.reportTo(ctx, up, stats, window); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// reportTo uploads one collected window to one upstream replica,
// maintaining that upstream's private delta state. The report names the
// table version and fenced leader epoch this cluster runs; a 200 answer
// confirms both, and renews the proxies' rules.
func (c *Cluster) reportTo(ctx context.Context, up *upstream, stats []telemetry.WindowStats, window time.Duration) error {
	c.mu.Lock()
	up.epoch++
	rep := MetricsReport{
		Cluster:      c.id,
		WindowMS:     window.Milliseconds(),
		Epoch:        up.epoch,
		TableVersion: c.table.Version,
		LeaderEpoch:  c.pubEpoch,
	}
	if up.needFull || up.epoch == 1 {
		rep.Stats = stats
	} else {
		rep.Delta = true
		rep.Stats, rep.Removed = telemetry.DeltaReport(up.lastReport, stats, reportEpsilon)
	}
	c.mu.Unlock()

	body, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	confirmed := false
	if err = up.err; err == nil {
		err = rpc(ctx, c.rt, http.MethodPost, up.metricsURL, jsonHeader, body, func(resp *http.Response, _ []byte) error {
			confirmed = resp.StatusCode == http.StatusOK
			return nil
		})
	}
	if err != nil {
		c.mu.Lock()
		up.needFull = true
		c.mu.Unlock()
		c.mReportErrs.Inc()
		return fmt.Errorf("controlplane: report to global: %w", err)
	}
	c.mu.Lock()
	up.needFull = false
	up.lastReport = stats
	c.mu.Unlock()
	c.mReports.Inc()
	if confirmed {
		c.renew(rep.TableVersion, rep.LeaderEpoch)
	}
	return nil
}

// renew restarts every proxy's staleness TTL on a report answered 200,
// as an empty push would, if the cluster still runs the table version
// and fenced epoch the report named: a push that landed in between has
// renewed the proxies already, and a newer fence means another leader.
// c.proxies only grows by append, so the slice read under c.mu stays
// valid after it.
func (c *Cluster) renew(version, epoch uint64) {
	c.mu.Lock()
	current := c.table.Version == version && c.pubEpoch == epoch
	proxies := c.proxies
	c.mu.Unlock()
	if !current {
		return
	}
	c.mRenewals.Inc()
	for _, p := range proxies {
		p.MarkRulesFresh()
	}
}

// reportEpsilon is the relative change below which a telemetry
// aggregate is considered unchanged and omitted from a delta report.
const reportEpsilon = 1e-9

// Register announces this cluster controller (reachable at selfURL) to
// every global replica. Returns the first error; replicas that were
// reached stay registered. Run announces it again to every replica each
// period (registration is idempotent), so a replica that starts late,
// or restarts with no clusters, still gets this cluster as a lease
// acceptor.
func (c *Cluster) Register(ctx context.Context, selfURL string) error {
	if selfURL == "" {
		return fmt.Errorf("controlplane: no URL to register this cluster at")
	}
	c.mu.Lock()
	c.self = selfURL
	n := len(c.ups)
	c.mu.Unlock()
	if n == 0 {
		return fmt.Errorf("controlplane: no global URL configured")
	}
	return c.register(ctx)
}

// register announces c.self to every replica, once Register has set it.
func (c *Cluster) register(ctx context.Context) error {
	c.mu.Lock()
	self, ups := c.self, c.ups
	c.mu.Unlock()
	if self == "" {
		return nil
	}
	body, err := json.Marshal(RegisterRequest{Cluster: c.id, URL: self})
	if err != nil {
		return err
	}
	var firstErr error
	for _, up := range ups {
		err := up.err
		if err == nil {
			err = rpc(ctx, c.rt, http.MethodPost, up.registerURL, jsonHeader, body, nil)
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("controlplane: register with %s: %w", up.url, err)
		}
	}
	return firstErr
}

// Run reports telemetry every period until the context is cancelled,
// first registering, once Register has named this controller's URL,
// with every replica.
func (c *Cluster) Run(ctx context.Context, period time.Duration) {
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.register(ctx)       // a replica that is down is retried next period
			c.Report(ctx, period) // errors visible to global via missing data
		case <-ctx.Done():
			return
		}
	}
}
