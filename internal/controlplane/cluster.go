package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/servicelayernetworking/slate/internal/dataplane"
	"github.com/servicelayernetworking/slate/internal/obs"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// ingestGroup is one externally pushed telemetry batch, stamped with
// the pushing proxy's identity and arrival time so stale batches can
// be excluded from the upstream snapshot.
type ingestGroup struct {
	source string // "service@cluster" from X-Slate-Source, or ""
	at     time.Time
	stats  []telemetry.WindowStats
}

// Cluster is the Cluster Controller daemon for one cluster: it
// aggregates telemetry from the cluster's SLATE-proxies, tags it with
// the cluster ID (instances don't know which cluster they belong to —
// paper §3.2), relays it to the Global Controller, and fans rule pushes
// out to every proxy.
//
// Graceful degradation: pushing proxies identify themselves via the
// X-Slate-Source header; the controller remembers when each source was
// last heard from. With a staleness bound set (SetStaleAfter), Collect
// excludes buffered batches older than the bound from the global
// snapshot — a re-delivered backlog from a long-dead agent must not
// masquerade as current load — and marks sources that have gone silent
// (MissingProxies, also served at GET /v1/health).
type Cluster struct {
	id topology.ClusterID

	mu         sync.Mutex
	proxies    []*dataplane.Proxy
	ingested   []ingestGroup
	sources    map[string]time.Time
	missing    []string
	excluded   int
	staleAfter time.Duration
	last       []telemetry.WindowStats
	table      *routing.Table
	history    []*routing.Table // superseded tables, oldest first

	// ups are the global-controller replicas this cluster reports to.
	// Each carries its own delta-report state (last acked window, report
	// epoch, full-resync flag) so replicas reconstruct windows
	// independently and a failover lands on a warm ingest.
	ups []*upstream

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

	client *http.Client
	now    func() time.Time

	metricsH      http.Handler
	mIngested     *obs.Counter
	mIngestErrs   *obs.Counter
	mReports      *obs.Counter
	mReportErrs   *obs.Counter
	mExcluded     *obs.Counter
	mPatches      *obs.Counter
	mPatchGaps    *obs.Counter
	mStaleRejects *obs.Counter
	mLeaseEpoch   *obs.Gauge
	mMissing      *obs.Gauge
	mTableVer     *obs.Gauge
}

// upstream is one global-controller replica this cluster reports to,
// with its private delta-report state.
type upstream struct {
	url        string
	lastReport []telemetry.WindowStats
	epoch      uint64
	needFull   bool
}

// tableHistoryCap bounds how many superseded tables the controller
// keeps to answer GET /v1/rules?since=N with a patch instead of a full
// table. Pollers further behind get a full patch.
const tableHistoryCap = 8

// NewCluster returns a cluster controller reporting to globalURL (may
// be empty for in-process wiring where the caller pumps telemetry
// itself). Metrics register into obs.Default(), labeled by cluster.
func NewCluster(id topology.ClusterID, globalURL string) *Cluster {
	reg := obs.Default()
	cl := string(id)
	c := &Cluster{
		id:       id,
		sources:  make(map[string]time.Time),
		table:    routing.EmptyTable(),
		client:   &http.Client{Timeout: 10 * time.Second},
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
		mExcluded: reg.CounterVec("slate_cluster_excluded_stale_windows_total",
			"Pushed batches excluded from the global snapshot as stale.", "cluster").With(cl),
		mPatches: reg.CounterVec("slate_cluster_patches_applied_total",
			"Incremental rule patches applied.", "cluster").With(cl),
		mPatchGaps: reg.CounterVec("slate_cluster_patch_gaps_total",
			"Rule patches rejected for a version gap (answered 409).", "cluster").With(cl),
		mStaleRejects: reg.CounterVec("slate_cluster_stale_pushes_rejected_total",
			"Rule pushes rejected as fenced: stale leader epoch or older table version.", "cluster").With(cl),
		mLeaseEpoch: reg.GaugeVec("slate_cluster_lease_epoch",
			"Leader-lease epoch this cluster last granted.", "cluster").With(cl),
		mMissing: reg.GaugeVec("slate_cluster_missing_proxies",
			"Proxies silent past the staleness bound as of the last Collect.", "cluster").With(cl),
		mTableVer: reg.GaugeVec("slate_cluster_table_version",
			"Version of the routing table last applied.", "cluster").With(cl),
	}
	if globalURL != "" {
		c.ups = append(c.ups, &upstream{url: globalURL})
	}
	return c
}

// AddUpstream registers one more global-controller replica to report
// to. Every upstream receives the same telemetry with independent delta
// state; duplicates are ignored.
func (c *Cluster) AddUpstream(url string) {
	if url == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, up := range c.ups {
		if up.url == url {
			return
		}
	}
	c.ups = append(c.ups, &upstream{url: url})
}

// SetNow swaps the controller's clock (deterministic harnesses, tests).
func (c *Cluster) SetNow(f func() time.Time) {
	c.mu.Lock()
	c.now = f
	c.mu.Unlock()
}

// SetTransport swaps the HTTP transport used for upstream RPCs (fault
// injection, tests). Call before Run.
func (c *Cluster) SetTransport(rt http.RoundTripper) {
	c.client.Transport = rt
}

// SetStaleAfter bounds telemetry staleness: Collect excludes pushed
// batches older than d and marks sources silent for longer than d as
// missing. Zero (the default) disables both.
func (c *Cluster) SetStaleAfter(d time.Duration) {
	c.mu.Lock()
	c.staleAfter = d
	c.mu.Unlock()
}

// ID returns the controller's cluster.
func (c *Cluster) ID() topology.ClusterID { return c.id }

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
// poll (in-process proxies get pushes via AddProxy). Without a query it
// returns the full table; with ?since=N it returns a routing.Patch from
// version N — empty when the poller is current, computed from the table
// history when the base is still remembered, and a full patch
// otherwise.
func (c *Cluster) handleGetRules(w http.ResponseWriter, r *http.Request) {
	sinceStr := r.URL.Query().Get("since")
	c.mu.Lock()
	pubEpoch := c.pubEpoch
	c.mu.Unlock()
	if pubEpoch > 0 {
		// Advertise the fenced leader epoch so agents can detect a
		// failover and resync rather than trust a raced incremental poll.
		w.Header().Set(dataplane.HeaderLeaderEpoch, strconv.FormatUint(pubEpoch, 10))
	}
	w.Header().Set("Content-Type", "application/json")
	if sinceStr == "" {
		json.NewEncoder(w).Encode(c.Table())
		return
	}
	since, err := strconv.ParseUint(sinceStr, 10, 64)
	if err != nil {
		http.Error(w, "since must be a table version", http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	cur := c.table
	var base *routing.Table
	if since == cur.Version {
		base = cur
	} else {
		for _, old := range c.history {
			if old.Version == since {
				base = old
				break
			}
		}
	}
	c.mu.Unlock()
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
// via AddProxy instead).
func (c *Cluster) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var stats []telemetry.WindowStats
	if err := json.NewDecoder(r.Body).Decode(&stats); err != nil {
		c.mIngestErrs.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.IngestFrom(r.Header.Get(dataplane.HeaderSource), stats)
	w.WriteHeader(http.StatusAccepted)
}

// Ingest buffers externally pushed telemetry for the next Report,
// without a source identity.
func (c *Cluster) Ingest(stats []telemetry.WindowStats) {
	c.IngestFrom("", stats)
}

// IngestFrom buffers externally pushed telemetry for the next Report
// and records when the pushing proxy was last heard from.
func (c *Cluster) IngestFrom(source string, stats []telemetry.WindowStats) {
	now := c.now()
	c.mu.Lock()
	c.ingested = append(c.ingested, ingestGroup{source: source, at: now, stats: stats})
	if source != "" {
		c.sources[source] = now
	}
	c.mu.Unlock()
	c.mIngested.Inc()
}

// MissingProxies returns the sources that had not reported within the
// staleness bound as of the last Collect, sorted.
func (c *Cluster) MissingProxies() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.missing...)
}

// ExcludedStaleWindows returns how many pushed batches Collect has
// excluded as stale since the controller started.
func (c *Cluster) ExcludedStaleWindows() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.excluded
}

// Health is the cluster controller's degradation snapshot, served at
// GET /v1/health.
type Health struct {
	Cluster        topology.ClusterID `json:"cluster"`
	TableVersion   uint64             `json:"table_version"`
	MissingProxies []string           `json:"missing_proxies,omitempty"`
	ExcludedStale  int                `json:"excluded_stale_windows"`
	// LeaderURL and LeaderEpoch describe the global replica holding
	// this cluster's leader-lease vote ("" / 0 without a replicated
	// control plane). PubEpoch is the fence: pushes below it are
	// rejected as coming from a deposed leader.
	LeaderURL   string `json:"leader_url,omitempty"`
	LeaderEpoch uint64 `json:"leader_epoch,omitempty"`
	PubEpoch    uint64 `json:"pub_epoch,omitempty"`
}

func (c *Cluster) handleHealth(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	h := Health{
		Cluster:        c.id,
		TableVersion:   c.table.Version,
		MissingProxies: append([]string(nil), c.missing...),
		ExcludedStale:  c.excluded,
		LeaderURL:      c.leaseHolder,
		LeaderEpoch:    c.leaseEpoch,
		PubEpoch:       c.pubEpoch,
	}
	c.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h)
}

// handlePatch applies an incremental rule push from the global
// controller. A version gap (this controller restarted, or a push went
// missing) answers 409, which makes the global resend a full patch.
func (c *Cluster) handlePatch(w http.ResponseWriter, r *http.Request) {
	fenced, ok := c.admitPush(w, r)
	if !ok {
		return
	}
	var p routing.Patch
	if err := json.NewDecoder(r.Body).Decode(&p); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if fenced && p.Full && p.Version < c.Table().Version {
		// CAS: a full (resync) patch applies unconditionally downstream,
		// so a version regression must be stopped here.
		c.rejectPush(w, dataplane.RejectCAS, "table version regression")
		return
	}
	if err := c.ApplyPatch(&p); err != nil {
		if errors.Is(err, routing.ErrVersionGap) {
			c.mPatchGaps.Inc()
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusNoContent)
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
	c.recordHistory(c.table)
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
// confirms the table version and renews the proxies' staleness TTL.
func (c *Cluster) ApplyPatch(p *routing.Patch) error {
	c.mu.Lock()
	next, err := c.table.Apply(p)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	c.recordHistory(c.table)
	c.table = next
	proxies := append([]*dataplane.Proxy(nil), c.proxies...)
	c.mu.Unlock()
	c.mPatches.Inc()
	c.mTableVer.Set(float64(next.Version))
	for _, pr := range proxies {
		pr.SetTable(next)
	}
	return nil
}

// recordHistory remembers a superseded table (bounded ring) so
// ?since=N polls can be answered with a patch. Caller holds c.mu.
func (c *Cluster) recordHistory(old *routing.Table) {
	if old == nil {
		return
	}
	c.history = append(c.history, old)
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
//
// With a staleness bound set, pushed batches that sat in the buffer
// longer than the bound are excluded from the merge — stale load data
// in the global snapshot is worse than missing data, because the
// optimizer would steer current traffic by a dead proxy's past — and
// the set of silent sources is recomputed for MissingProxies.
func (c *Cluster) Collect(window time.Duration) []telemetry.WindowStats {
	now := c.now()
	c.mu.Lock()
	proxies := append([]*dataplane.Proxy(nil), c.proxies...)
	buffered := c.ingested
	c.ingested = nil
	staleAfter := c.staleAfter
	var groups [][]telemetry.WindowStats
	for _, g := range buffered {
		if staleAfter > 0 && now.Sub(g.at) > staleAfter {
			c.excluded++
			c.mExcluded.Inc()
			continue
		}
		groups = append(groups, g.stats)
	}
	var missing []string
	if staleAfter > 0 {
		for src, seen := range c.sources {
			if now.Sub(seen) > staleAfter {
				missing = append(missing, src)
			}
		}
		sort.Strings(missing)
	}
	c.missing = missing
	c.mu.Unlock()
	c.mMissing.Set(float64(len(missing)))

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
	ups := append([]*upstream(nil), c.ups...)
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
// maintaining that upstream's private delta state.
func (c *Cluster) reportTo(ctx context.Context, up *upstream, stats []telemetry.WindowStats, window time.Duration) error {
	c.mu.Lock()
	up.epoch++
	rep := MetricsReport{
		Cluster:  c.id,
		WindowMS: window.Milliseconds(),
		Epoch:    up.epoch,
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
	if err := postJSON(ctx, c.client, up.url+"/v1/metrics", body); err != nil {
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
	return nil
}

// reportEpsilon is the relative change below which a telemetry
// aggregate is considered unchanged and omitted from a delta report.
const reportEpsilon = 1e-9

// Register announces this cluster controller (reachable at selfURL) to
// every registered global replica. Returns the first error; replicas
// that were reached stay registered.
func (c *Cluster) Register(ctx context.Context, selfURL string) error {
	c.mu.Lock()
	ups := append([]*upstream(nil), c.ups...)
	c.mu.Unlock()
	if len(ups) == 0 {
		return fmt.Errorf("controlplane: no global URL configured")
	}
	body, err := json.Marshal(RegisterRequest{Cluster: c.id, URL: selfURL})
	if err != nil {
		return err
	}
	var firstErr error
	for _, up := range ups {
		if err := postJSON(ctx, c.client, up.url+"/v1/register", body); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("controlplane: register: %w", err)
		}
	}
	return firstErr
}

// Run reports telemetry every period until the context is cancelled.
func (c *Cluster) Run(ctx context.Context, period time.Duration) {
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.Report(ctx, period) // errors visible to global via missing data
		case <-ctx.Done():
			return
		}
	}
}

// postJSON posts body to url under ctx and drains the response,
// returning an error on transport failure or a non-2xx status.
func postJSON(ctx context.Context, client *http.Client, url string, body []byte) error {
	return postJSONHeaders(ctx, client, url, body, nil)
}

// postJSONHeaders is postJSON with extra request headers (the leader
// epoch on fenced rule pushes). A non-2xx response is preserved as a
// statusError carrying the X-Slate-Reject marker, if any.
func postJSONHeaders(ctx context.Context, client *http.Client, url string, body []byte, hdr map[string]string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return statusError{code: resp.StatusCode, reject: resp.Header.Get(dataplane.HeaderReject)}
	}
	return nil
}

// statusError is a non-2xx HTTP response, preserved as a typed error so
// callers can branch on the code (409 → resync) and the X-Slate-Reject
// marker (step down, don't resync) without string matching.
type statusError struct {
	code   int
	reject string
}

func (e statusError) Error() string {
	if e.reject != "" {
		return fmt.Sprintf("status %d (%s)", e.code, e.reject)
	}
	return fmt.Sprintf("status %d", e.code)
}

// statusCode extracts the HTTP status from an error chain produced by
// postJSON, reporting whether one was found.
func statusCode(err error) (int, bool) {
	var se statusError
	if errors.As(err, &se) {
		return se.code, true
	}
	return 0, false
}

// rejectReason extracts the X-Slate-Reject marker from an error chain
// ("" when absent): a non-empty marker tells a pusher it was fenced
// out as a deposed leader rather than merely out of sync.
func rejectReason(err error) string {
	var se statusError
	if errors.As(err, &se) {
		return se.reject
	}
	return ""
}
