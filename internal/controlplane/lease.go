package controlplane

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"time"

	"github.com/servicelayernetworking/slate/internal/routing"
)

// Leader election for the replicated control plane.
//
// The cluster controllers double as lease acceptors: a global replica
// becomes leader by holding a TTL lease from a MAJORITY of registered
// cluster controllers, so two replicas can never both publish (any two
// majorities intersect) and no extra coordination service is needed —
// the voters are exactly the processes that must agree on which leader
// to obey.
//
// The protocol is a lease with Paxos-style promise fencing:
//
//  1. A candidate campaigns with an epoch strictly above every epoch it
//     has seen, POSTing /v1/lease to every cluster controller.
//  2. A cluster grants when the request renews the current holder, or
//     carries a higher epoch and the current lease has expired (or was
//     never granted). Granting epoch E also promises to reject every
//     rule push below E (pubEpoch fence).
//  3. Majority grants → leadership for the TTL; the leader renews well
//     inside the TTL and steps down the moment it loses the majority.
//
// A deposed leader is therefore harmless twice over: its renewals fail
// (a newer epoch holds the lease), and its in-flight publishes bounce
// off the pubEpoch fence with 409 + X-Slate-Reject — including "full
// resync" pushes, which would otherwise overwrite a newer table.

// LeaseRequest is a candidate's lease acquisition or renewal.
type LeaseRequest struct {
	// Candidate identifies the replica — by convention its advertised
	// base URL, so a denied rival (and anyone reading /v1/health) can
	// find the leader without extra discovery.
	Candidate string `json:"candidate"`
	// Epoch is the candidate's proposed lease epoch. Renewals repeat the
	// granted epoch; campaigns must exceed every epoch seen.
	Epoch uint64 `json:"epoch"`
	// TTLMS is the requested lease duration in milliseconds.
	TTLMS int64 `json:"ttl_ms"`
}

// LeaseResponse reports the acceptor's lease state after deciding.
// Denied candidates learn the current holder and epoch from it.
type LeaseResponse struct {
	Granted     bool   `json:"granted"`
	Holder      string `json:"holder,omitempty"`
	Epoch       uint64 `json:"epoch"`
	ExpiresInMS int64  `json:"expires_in_ms"`
}

// maxLeaseTTLMS is the longest lease TTL, in milliseconds, that a
// time.Duration holds.
const maxLeaseTTLMS = math.MaxInt64 / int64(time.Millisecond)

// handleLease decides one lease acquisition/renewal. Grant rules:
// same holder + same epoch renews; a higher epoch takes over only once
// the current lease has lapsed. Every grant fences pubEpoch forward.
func (c *Cluster) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := decodeBody(r, &req); err != nil {
		badBody(w, err)
		return
	}
	if req.Candidate == "" || req.Epoch == 0 || req.TTLMS <= 0 {
		http.Error(w, "candidate, epoch and ttl_ms required", http.StatusBadRequest)
		return
	}
	if req.TTLMS > maxLeaseTTLMS {
		// Past this the TTL overflows a time.Duration, and the lease it
		// granted would already have expired.
		http.Error(w, "ttl_ms out of range", http.StatusBadRequest)
		return
	}
	now := c.now()
	ttl := time.Duration(req.TTLMS) * time.Millisecond
	c.mu.Lock()
	granted := false
	switch {
	case req.Candidate == c.leaseHolder && req.Epoch == c.leaseEpoch:
		// Renewal by the current holder.
		c.leaseExpires = now.Add(ttl)
		granted = true
	case req.Epoch > c.leaseEpoch && (c.leaseHolder == "" || !now.Before(c.leaseExpires)):
		// New campaign: the previous lease lapsed (or never existed).
		c.leaseHolder = req.Candidate
		c.leaseEpoch = req.Epoch
		c.leaseExpires = now.Add(ttl)
		granted = true
	}
	if granted && c.leaseEpoch > c.pubEpoch {
		c.pubEpoch = c.leaseEpoch
	}
	resp := LeaseResponse{
		Granted:     granted,
		Holder:      c.leaseHolder,
		Epoch:       c.leaseEpoch,
		ExpiresInMS: c.leaseExpires.Sub(now).Milliseconds(),
	}
	c.mLeaseEpoch.Set(float64(c.leaseEpoch))
	c.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// admitLocked decides whether rule push p, carrying leader-epoch
// header hdr, may apply. It enforces the pubEpoch fence and, for a
// fenced push, the full-patch CAS, and returns the X-Slate-Reject
// reason ("" admits). The caller holds c.mu from this decision through
// the table swap, so a lease granted while the push's body was still
// arriving is seen here.
//
// Once any lease has been granted (pubEpoch > 0), headerless pushes are
// rejected too: under a replicated control plane every legitimate
// publisher states its epoch, so an anonymous push can only be a
// leftover single-controller deployment that must not race the elected
// leader.
func (c *Cluster) admitLocked(hdr string, p *routing.Patch) (reason, msg string) {
	if hdr == "" {
		if c.pubEpoch > 0 {
			return rejectStaleLeader, "push without leader epoch on a fenced cluster"
		}
		return "", ""
	}
	epoch, err := strconv.ParseUint(hdr, 10, 64)
	if err != nil || epoch < c.pubEpoch {
		return rejectStaleLeader, "leader epoch below fence"
	}
	c.pubEpoch = epoch
	if p.Full && p.Version < c.table.Version {
		// CAS: a full (resync) patch applies unconditionally downstream,
		// so a version regression must be stopped here.
		return rejectCAS, "table version regression"
	}
	return "", ""
}

// rejectPush answers 409 with the X-Slate-Reject marker that tells the
// pusher to step down instead of resyncing.
func (c *Cluster) rejectPush(w http.ResponseWriter, reason, msg string) {
	c.mStaleRejects.Inc()
	w.Header().Set(headerReject, reason)
	http.Error(w, msg, http.StatusConflict)
}
