package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/dataplane"
)

// Replicated global controller. EnableHA turns a Global from "the one
// process ticking on a timer" into one replica of N:
//
//   - Leadership: each HAStep the replica campaigns for (or renews) a
//     TTL lease held by a majority of cluster controllers (lease.go).
//     Only the leader runs optimization ticks and publishes tables.
//   - Warm handoff: followers poll the leader's GET /v1/snapshot and
//     cache its warm state (simplex bases, fingerprints, forecast
//     state, search incumbents). A follower that wins an election
//     restores the cache and resumes exactly where the deposed leader
//     left off — bit-identical table, warm solves — instead of paying
//     a cold-solve storm at the worst possible moment. Serving a
//     snapshot makes the leader's shards forget the tableaux their
//     solvers kept, which it leaves out (core.Controller.Snapshot).
//   - Event-driven re-solve: telemetry reports whose per-cluster load
//     moves beyond EventThreshold arm an immediate re-solve instead of
//     waiting out the sync period. A token bucket (EventBurst tokens,
//     one refilled per scheduled step) bounds the extra solve rate, and
//     shard fingerprints already confine the work to dirty shards.
//
// Everything steps through HAStep, which is synchronous and
// deterministic given the acceptors' responses — the wall-clock Run
// loop and the virtual-time chaos harness drive the same code.

// HAConfig tunes one replica. Zero values get defaults.
type HAConfig struct {
	// LeaseTTL is the leader lease duration (default 2×period is a good
	// choice; absolute default 10s). Failover time is bounded by the
	// TTL: a dead leader's lease must lapse before a rival can win.
	LeaseTTL time.Duration
	// EventThreshold is the relative per-cluster load change that arms
	// an immediate re-solve (default 0.25; a cluster going 0→nonzero
	// always arms). Negative disables event-driven re-solves.
	EventThreshold float64
	// EventBurst caps banked event-solve tokens (default 2).
	EventBurst int
}

func (c HAConfig) withDefaults() HAConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.EventThreshold == 0 { //slate:nolint floatcmp -- exact zero is the unset sentinel; disabling is expressed as a negative threshold
		c.EventThreshold = 0.25
	}
	if c.EventBurst <= 0 {
		c.EventBurst = 2
	}
	return c
}

// EnableHA makes this Global one replica of a replicated control
// plane. replica is its advertised base URL (doubling as its identity
// in lease requests, so rivals and operators can find the leader).
// Call before Handler/Run.
func (g *Global) EnableHA(replica string, cfg HAConfig) {
	cfg = cfg.withDefaults()
	g.mu.Lock()
	g.haEnabled = true
	g.replica = replica
	g.haCfg = cfg
	g.eventTokens = cfg.EventBurst
	g.mu.Unlock()
}

// SetNow swaps the replica's clock (deterministic harnesses, tests).
func (g *Global) SetNow(f func() time.Time) {
	g.mu.Lock()
	g.now = f
	g.mu.Unlock()
}

// IsLeader reports whether this replica currently holds the lease
// majority (always true without EnableHA — a single controller is its
// own leader).
func (g *Global) IsLeader() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return !g.haEnabled || g.isLeader
}

// HAStep runs one replica step: campaign or renew the lease; as leader,
// refill one event token and run a full optimization tick; as follower,
// refresh the cached leader snapshot. Without EnableHA it degenerates
// to a plain Tick, so callers can drive both modes identically.
func (g *Global) HAStep(ctx context.Context) error {
	g.mu.Lock()
	enabled := g.haEnabled
	g.mu.Unlock()
	if !enabled {
		return g.Tick(ctx)
	}
	g.campaign(ctx)
	g.mu.Lock()
	leader := g.isLeader
	if leader && g.eventTokens < g.haCfg.EventBurst {
		g.eventTokens++
	}
	g.mu.Unlock()
	if leader {
		return g.Tick(ctx)
	}
	g.fetchSnapshot(ctx)
	return nil
}

// campaign acquires or renews the lease from every registered cluster
// controller (in sorted order, for determinism) and updates leadership:
// majority grants → leader; otherwise step down and remember the
// holder the acceptors reported. With no clusters registered yet the
// replica trivially leads (single-node and bootstrap case).
func (g *Global) campaign(ctx context.Context) {
	g.mu.Lock()
	type acceptor struct {
		id  string
		url string
	}
	accs := make([]acceptor, 0, len(g.clusters))
	for c, u := range g.clusters {
		accs = append(accs, acceptor{id: string(c), url: u})
	}
	sort.Slice(accs, func(i, j int) bool { return accs[i].id < accs[j].id })
	epoch := g.leaseEpoch
	if !g.isLeader {
		epoch = g.maxSeenEpoch + 1
	}
	req := LeaseRequest{Candidate: g.replica, Epoch: epoch, TTLMS: g.haCfg.LeaseTTL.Milliseconds()}
	g.mu.Unlock()

	granted := 0
	var rivalEpoch uint64
	var rivalHolder string
	for _, a := range accs {
		resp, err := g.requestLease(ctx, a.url, req)
		if err != nil {
			continue // unreachable acceptor counts as a denial
		}
		if resp.Granted {
			granted++
		} else if resp.Epoch > rivalEpoch {
			rivalEpoch = resp.Epoch
			rivalHolder = resp.Holder
		}
	}

	g.mu.Lock()
	defer g.mu.Unlock()
	if rivalEpoch > g.maxSeenEpoch {
		g.maxSeenEpoch = rivalEpoch
	}
	won := len(accs) == 0 || granted*2 > len(accs)
	if won {
		justWon := !g.isLeader
		g.isLeader = true
		g.leaseEpoch = epoch
		if epoch > g.maxSeenEpoch {
			g.maxSeenEpoch = epoch
		}
		g.leaderURL = g.replica
		g.mLeader.Set(1)
		g.mLeaseEpoch.Set(float64(epoch))
		if justWon {
			g.mFailovers.Inc()
			g.restoreFromCacheLocked()
		}
		return
	}
	g.isLeader = false
	g.mLeader.Set(0)
	if rivalHolder != "" && rivalHolder != g.replica {
		g.leaderURL = rivalHolder
	}
}

// restoreFromCacheLocked installs the cached leader snapshot on an
// election win, if it is ahead of this replica's own state. Caller
// holds g.mu.
func (g *Global) restoreFromCacheLocked() {
	snap := g.snapCache
	if snap == nil || snap.Version <= g.ctrl.Version() {
		return
	}
	if err := g.ctrl.Restore(snap); err != nil {
		g.lastErr = fmt.Sprintf("restore snapshot v%d: %v", snap.Version, err)
		return
	}
	g.mSnapRestores.Inc()
	g.mTableVer.Set(float64(g.ctrl.Table().Version))
}

// requestLease POSTs one lease request and decodes the decision.
func (g *Global) requestLease(ctx context.Context, acceptorURL string, req LeaseRequest) (*LeaseResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, acceptorURL+"/v1/lease", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := g.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		return nil, statusError{code: resp.StatusCode}
	}
	var lr LeaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		return nil, err
	}
	return &lr, nil
}

// fetchSnapshot refreshes the follower's cached copy of the leader's
// warm state. Failures are tolerated — the cache just stays at its
// previous (still warm, slightly older) version.
func (g *Global) fetchSnapshot(ctx context.Context) {
	g.mu.Lock()
	leader := g.leaderURL
	self := g.replica
	g.mu.Unlock()
	if leader == "" || leader == self {
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, leader+"/v1/snapshot", nil)
	if err != nil {
		return
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return
	}
	var snap core.ControllerSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return
	}
	g.mu.Lock()
	if g.snapCache == nil || snap.Version >= g.snapCache.Version {
		g.snapCache = &snap
		g.mSnapFetches.Inc()
	}
	g.mu.Unlock()
}

// stepDown relinquishes leadership after a fencing rejection: some
// acceptor has promised a higher epoch, so this replica's lease view is
// stale. The next HAStep campaigns fresh (and may legitimately win
// again with a higher epoch).
func (g *Global) stepDown(reason string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.haEnabled || !g.isLeader {
		return
	}
	g.isLeader = false
	g.lastErr = "stepped down: " + reason
	g.mLeader.Set(0)
	g.mStepDowns.Inc()
}

// publisherHeaders returns the fencing headers stamped on rule pushes,
// nil when not replicated (single-controller pushes stay headerless).
func (g *Global) publisherHeaders() map[string]string {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.haEnabled {
		return nil
	}
	return map[string]string{
		dataplane.HeaderLeaderEpoch: fmt.Sprintf("%d", g.leaseEpoch),
		dataplane.HeaderLeader:      g.replica,
	}
}

// TryEventSolve runs an immediate re-solve if one is armed and a token
// is available (leader only). It reports whether a solve ran. The
// wall-clock Run loop calls it when the event channel fires; the
// deterministic harness calls it directly between windows.
func (g *Global) TryEventSolve(ctx context.Context) bool {
	g.mu.Lock()
	if (g.haEnabled && !g.isLeader) || !g.eventArmed || g.eventTokens <= 0 {
		g.mu.Unlock()
		return false
	}
	g.eventArmed = false
	g.eventTokens--
	g.mu.Unlock()
	g.mEventSolves.Inc()
	g.Tick(ctx) // errors surface via /v1/status, like scheduled ticks
	return true
}

// noteClusterLoad feeds breach detection with one cluster's
// reconstructed total RPS. On a relative swing beyond EventThreshold
// (or a silent cluster stirring) it arms an event re-solve and nudges
// the Run loop.
func (g *Global) noteClusterLoad(last, cur float64) {
	g.mu.Lock()
	th := g.haCfg.EventThreshold
	enabled := g.haEnabled
	g.mu.Unlock()
	if !enabled || th < 0 {
		return
	}
	breach := false
	switch {
	case last == 0: //slate:nolint floatcmp -- exact zero means no prior load; any nonzero arrival is a breach by definition
		breach = cur > 0
	default:
		diff := cur - last
		if diff < 0 {
			diff = -diff
		}
		breach = diff > th*last
	}
	if !breach {
		return
	}
	g.mEventBreaches.Inc()
	g.mu.Lock()
	g.eventArmed = true
	g.mu.Unlock()
	select {
	case g.eventCh <- struct{}{}:
	default: // a wakeup is already pending
	}
}

// GlobalHealth is the global replica's health snapshot, served at
// GET /v1/health.
type GlobalHealth struct {
	Replica string `json:"replica,omitempty"`
	// Role is "single" without EnableHA, else "leader" or "follower".
	Role         string `json:"role"`
	LeaderURL    string `json:"leader_url,omitempty"`
	LeaseEpoch   uint64 `json:"lease_epoch"`
	TableVersion uint64 `json:"table_version"`
	Ticks        uint64 `json:"ticks"`
	LastError    string `json:"last_error,omitempty"`
}

func (g *Global) handleHealth(w http.ResponseWriter, _ *http.Request) {
	g.mu.Lock()
	h := GlobalHealth{
		Replica:      g.replica,
		Role:         "single",
		LeaderURL:    g.leaderURL,
		LeaseEpoch:   g.leaseEpoch,
		TableVersion: g.ctrl.Table().Version,
		Ticks:        g.ticks,
		LastError:    g.lastErr,
	}
	if g.haEnabled {
		if g.isLeader {
			h.Role = "leader"
			h.LeaderURL = g.replica
		} else {
			h.Role = "follower"
		}
	}
	g.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h)
}

// handleSnapshot serves the controller's warm state for follower
// replicas (and operators taking a state backup).
func (g *Global) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	g.mu.Lock()
	snap := g.ctrl.Snapshot()
	g.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(snap)
}
