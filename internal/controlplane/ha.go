package controlplane

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"github.com/servicelayernetworking/slate/internal/core"
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
//
// Everything steps through HAStep, once per period, which is
// synchronous and deterministic given the acceptors' responses — the
// wall-clock Run loop and the virtual-time chaos harness drive the same
// code. The period is the only re-plan trigger, replicated or not.

// EnableHA makes this Global one replica of a replicated control
// plane. replica is its advertised base URL (doubling as its identity
// in lease requests, so rivals and operators can find the leader).
// leaseTTL is the leader lease duration, 10 s when ≤ 0 (2×period is a
// good choice); failover time is bounded by it, since a dead leader's
// lease must lapse before a rival can win. Call before Handler/Run.
func (g *Global) EnableHA(replica string, leaseTTL time.Duration) {
	if leaseTTL <= 0 {
		leaseTTL = 10 * time.Second
	}
	g.mu.Lock()
	g.haEnabled = true
	g.replica = replica
	g.leaseTTL = leaseTTL
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
// run a full optimization tick; as follower, refresh the cached leader
// snapshot. Without EnableHA it degenerates
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
	g.mu.Unlock()
	if leader {
		return g.Tick(ctx)
	}
	g.fetchSnapshot(ctx)
	return nil
}

// campaign acquires or renews the lease from every registered cluster
// controller (in cluster order, for determinism) and updates leadership:
// majority grants → leader; otherwise step down and remember the
// holder the acceptors reported. With no clusters registered yet the
// replica trivially leads (single-node and bootstrap case).
func (g *Global) campaign(ctx context.Context) {
	g.mu.Lock()
	accs := g.clusters
	epoch := g.leaseEpoch
	if !g.isLeader {
		epoch = g.maxSeenEpoch + 1
	}
	req := LeaseRequest{Candidate: g.replica, Epoch: epoch, TTLMS: g.leaseTTL.Milliseconds()}
	g.mu.Unlock()
	body, _ := json.Marshal(req) // strings and integers always encode

	granted := 0
	var rivalEpoch uint64
	var rivalHolder string
	for _, a := range accs {
		resp, err := g.requestLease(ctx, a.leaseURL, body)
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
	g.unpublish()
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

// requestLease POSTs one encoded LeaseRequest and decodes the decision.
func (g *Global) requestLease(ctx context.Context, leaseURL *url.URL, body []byte) (*LeaseResponse, error) {
	var lr LeaseResponse
	err := rpc(ctx, g.rt, http.MethodPost, leaseURL, jsonHeader, body, func(_ *http.Response, b []byte) error {
		return json.Unmarshal(b, &lr)
	})
	if err != nil {
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
	if leader == g.replica {
		leader = ""
	}
	if leader != g.snapFrom {
		// Parsed once per leader; a leader URL that does not parse
		// leaves nothing to fetch from.
		g.snapFrom, g.snapURL = leader, nil
		if leader != "" {
			g.snapURL, _ = url.Parse(leader + "/v1/snapshot")
		}
	}
	snapURL := g.snapURL
	g.mu.Unlock()
	if snapURL == nil {
		return
	}
	var snap core.ControllerSnapshot
	err := rpc(ctx, g.rt, http.MethodGet, snapURL, nil, nil, func(_ *http.Response, b []byte) error {
		return json.Unmarshal(b, &snap)
	})
	if err != nil {
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
	g.unpublish()
}

// unpublish forgets the newest push round's table once this replica
// stops leading, so its report answers are 202 again: only the
// cluster's fenced publisher renews its rules.
func (g *Global) unpublish() {
	g.sentMu.Lock()
	g.published = nil
	g.sentMu.Unlock()
}

// publisher returns the header of one push round's rule pushes and the
// leader epoch it carries: jsonHeader and 0 when not replicated
// (single-controller pushes carry no fencing headers), else a copy
// with the leader's lease epoch and URL added, so acceptors can fence
// out a deposed leader.
func (g *Global) publisher() (http.Header, uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.haEnabled {
		return jsonHeader, 0
	}
	h := jsonHeader.Clone()
	h.Set(headerLeaderEpoch, strconv.FormatUint(g.leaseEpoch, 10))
	h.Set(headerLeader, g.replica)
	return h, g.leaseEpoch
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
