package dataplane

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/servicelayernetworking/slate/internal/obs"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/sim"
	"github.com/servicelayernetworking/slate/internal/telemetry"
)

// HeaderSource identifies the pushing proxy ("service@cluster") on
// telemetry uploads, so the cluster controller can track which proxies
// have gone silent and exclude their stale windows from the global
// snapshot.
const HeaderSource = "X-Slate-Source"

// Replicated-control-plane wire headers. They live in this package —
// the bottom of the control-plane import graph — because both the
// cluster controller (which enforces them) and the Agent (which
// observes them) need the names.
const (
	// HeaderLeaderEpoch carries the publishing leader's lease epoch on
	// rule pushes (requests) and the accepting controller's fenced epoch
	// on rule reads (responses). A push whose epoch is below the fenced
	// one is rejected: the sender was deposed.
	HeaderLeaderEpoch = "X-Slate-Leader-Epoch"
	// HeaderLeader carries the publishing leader's identity (its
	// advertised URL) on rule pushes.
	HeaderLeader = "X-Slate-Leader"
	// HeaderReject distinguishes 409 rejections: RejectStaleLeader and
	// RejectCAS mean "step down", a bare 409 means "version gap, resync".
	HeaderReject = "X-Slate-Reject"
	// RejectStaleLeader marks a push refused because its lease epoch is
	// below the fenced one.
	RejectStaleLeader = "stale-leader"
	// RejectCAS marks a push refused because it would replace the table
	// with an older version.
	RejectCAS = "cas"
)

// AgentOptions tunes the Agent's fault tolerance. The zero value gets
// production defaults.
type AgentOptions struct {
	// Period is the sync interval (default 5s).
	Period time.Duration
	// MaxRetries bounds per-RPC retry attempts within one sync round
	// beyond the first try (default 2; negative disables retries).
	MaxRetries int
	// BackoffBase is the first retry's backoff (default 100ms); each
	// further retry doubles it, capped at backoffMax. The actual wait
	// is jittered uniformly in [0.5, 1.5)x from RNG.
	BackoffBase time.Duration
	// RNG seeds the backoff jitter stream (nil derives from Seed).
	RNG *sim.RNG
	// Seed seeds the jitter stream when RNG is nil.
	Seed int64
	// MaxPendingWindows caps how many unpushed telemetry windows the
	// agent re-queues across failed rounds before dropping the oldest
	// (default 8). Re-queued windows are merged into the next
	// successful push, so a controller outage loses no telemetry as
	// long as it is shorter than MaxPendingWindows sync periods.
	MaxPendingWindows int
}

// backoffMax caps the doubling retry backoff within one sync round.
const backoffMax = 2 * time.Second

func (o AgentOptions) withDefaults() AgentOptions {
	if o.Period <= 0 {
		o.Period = 5 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 2
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 100 * time.Millisecond
	}
	if o.RNG == nil {
		o.RNG = sim.NewRNG(o.Seed).DeriveNamed("agent-backoff")
	}
	if o.MaxPendingWindows <= 0 {
		o.MaxPendingWindows = 8
	}
	return o
}

// Agent connects a standalone (out-of-process) Proxy to its cluster
// controller: it pushes the proxy's telemetry windows upstream
// (POST /v1/metrics) and polls for routing-table updates
// (GET /v1/rules). In-process deployments skip the Agent and use
// controlplane.Cluster.AddProxy instead; the Agent is what
// cmd/slate-proxy runs so a SLATE deployment can span real processes
// and hosts.
//
// The Agent is hardened against a faulty control plane: each RPC is
// retried with exponential backoff and seeded jitter, and a telemetry
// window whose push ultimately fails is re-queued and merged into the
// next round's upload instead of being dropped (bounded by
// MaxPendingWindows).
type Agent struct {
	proxy      *Proxy
	clusterURL string
	opts       AgentOptions
	client     *http.Client

	// leaderEpoch is the control plane's fenced leader epoch as last
	// reported on a rules response; failovers counts observed changes.
	// Only touched from Sync (one goroutine), so no lock.
	leaderEpoch uint64
	failovers   int
	// pending holds flushed-but-unacknowledged telemetry windows.
	// Only touched from Sync (one goroutine), so no lock.
	pending [][]telemetry.WindowStats
	// droppedWindows counts windows evicted by the pending cap.
	droppedWindows int
	// sleep is swapped by tests to avoid real backoff waits.
	sleep func(ctx context.Context, d time.Duration) error

	mRetries   *obs.Counter
	mDropped   *obs.Counter
	mResyncs   *obs.Counter
	mFailovers *obs.Counter
	mPending   *obs.Gauge
}

// NewAgent wires a proxy to a cluster controller base URL. Zero
// options take their documented defaults.
func NewAgent(p *Proxy, clusterURL string, opts AgentOptions) (*Agent, error) {
	if p == nil || clusterURL == "" {
		return nil, fmt.Errorf("dataplane: agent needs a proxy and a cluster controller URL")
	}
	opts = opts.withDefaults()
	reg := obs.Default()
	svc, cl := p.Service(), string(p.Cluster())
	return &Agent{
		proxy:      p,
		clusterURL: clusterURL,
		opts:       opts,
		client:     &http.Client{Timeout: 10 * time.Second},
		sleep:      sleepCtx,
		mRetries: reg.CounterVec("slate_agent_retries_total",
			"Control-plane RPC retry attempts (beyond the first try).",
			"service", "cluster").With(svc, cl),
		mDropped: reg.CounterVec("slate_agent_dropped_windows_total",
			"Telemetry windows evicted because the controller stayed unreachable past the pending cap.",
			"service", "cluster").With(svc, cl),
		mResyncs: reg.CounterVec("slate_agent_rule_resyncs_total",
			"Rule polls that fell back to a full-table fetch after a patch version gap.",
			"service", "cluster").With(svc, cl),
		mFailovers: reg.CounterVec("slate_agent_leader_failovers_total",
			"Leader-epoch changes observed on rule polls.",
			"service", "cluster").With(svc, cl),
		mPending: reg.GaugeVec("slate_agent_pending_windows",
			"Telemetry windows queued awaiting a successful push.",
			"service", "cluster").With(svc, cl),
	}, nil
}

// Sync performs one round: upload the telemetry accumulated since the
// last round (plus any re-queued windows from failed rounds), then
// fetch and apply the current routing table. The context bounds both
// RPCs so an agent shutdown cancels an in-flight round instead of
// waiting out network timeouts. Errors are returned but non-fatal: the
// proxy keeps serving with its last rules (a real data plane must
// survive control-plane outages).
func (a *Agent) Sync(ctx context.Context) error {
	pushErr := a.pushTelemetry(ctx)
	pollErr := a.pollRules(ctx)
	return errors.Join(pushErr, pollErr)
}

// pushTelemetry flushes the proxy's window, queues it behind any
// unacknowledged windows, and attempts one (retried) upload of the
// merged backlog. On failure the backlog is kept for the next round —
// the fix for the telemetry-loss bug where a failed POST discarded the
// flushed window.
func (a *Agent) pushTelemetry(ctx context.Context) error {
	if stats := a.proxy.FlushTelemetry(a.opts.Period); len(stats) > 0 {
		a.pending = append(a.pending, stats)
		if over := len(a.pending) - a.opts.MaxPendingWindows; over > 0 {
			a.pending = a.pending[over:]
			a.droppedWindows += over
			a.mDropped.Add(uint64(over))
		}
	}
	a.mPending.Set(float64(len(a.pending)))
	if len(a.pending) == 0 {
		return nil
	}
	// Merge the backlog into one upload: same-key windows combine into
	// request-weighted totals, so a late push carries the outage's full
	// traffic picture in one body.
	merged := telemetry.Merge(a.pending...)
	body, err := json.Marshal(merged)
	if err != nil {
		return err
	}
	err = a.withRetries(ctx, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.clusterURL+"/v1/metrics", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(HeaderSource, a.proxy.Service()+"@"+string(a.proxy.Cluster()))
		resp, err := a.client.Do(req)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("dataplane: agent push: %w", err)
	}
	a.pending = nil
	a.mPending.Set(0)
	return nil
}

// pollRules fetches routing updates and applies them. The poll is
// incremental — GET /v1/rules?since=<current version> — and the
// controller answers with a routing.Patch carrying only the changed
// rules (empty when the agent is current). A version gap (the patch's
// base is not the table this proxy holds, e.g. the agent fell behind
// the controller's history) triggers a full-table resync. Any
// successful poll marks the proxy's rules fresh, even when the version
// is unchanged — freshness means "the controller answered", not "the
// rules changed".
func (a *Agent) pollRules(ctx context.Context) error {
	body, epoch, err := a.getRules(ctx, fmt.Sprintf("?since=%d", a.proxy.TableVersion()))
	if err != nil {
		return fmt.Errorf("dataplane: agent poll: %w", err)
	}
	if epoch > 0 && epoch != a.leaderEpoch {
		// The control plane elected a new leader since the last poll.
		// A resync (rather than trusting the incremental answer) pins
		// the proxy to the new leader's table even if the poll raced a
		// leadership change mid-flight.
		first := a.leaderEpoch == 0
		a.leaderEpoch = epoch
		if !first {
			a.failovers++
			a.mFailovers.Inc()
			return a.resyncRules(ctx)
		}
	}
	var patch routing.Patch
	if err := json.Unmarshal(body, &patch); err != nil {
		return fmt.Errorf("dataplane: agent poll: %w", err)
	}
	if patch.Empty() && patch.Version == a.proxy.TableVersion() {
		a.proxy.MarkRulesFresh()
		return nil
	}
	if err := a.proxy.ApplyPatch(&patch); err != nil {
		if !errors.Is(err, routing.ErrVersionGap) {
			return fmt.Errorf("dataplane: agent poll: %w", err)
		}
		return a.resyncRules(ctx)
	}
	return nil
}

// resyncRules refetches the full table after a patch failed to apply
// or a leader failover was observed.
func (a *Agent) resyncRules(ctx context.Context) error {
	a.mResyncs.Inc()
	body, epoch, err := a.getRules(ctx, "")
	if err != nil {
		return fmt.Errorf("dataplane: agent resync: %w", err)
	}
	if epoch > 0 {
		a.leaderEpoch = epoch
	}
	var table routing.Table
	if err := json.Unmarshal(body, &table); err != nil {
		return fmt.Errorf("dataplane: agent resync: %w", err)
	}
	a.proxy.SetTable(&table)
	return nil
}

// getRules performs one (retried) GET of the controller's rules
// endpoint and returns the raw response body plus the leader epoch the
// controller advertised (0 when it did not).
func (a *Agent) getRules(ctx context.Context, query string) ([]byte, uint64, error) {
	var body []byte
	var epoch uint64
	err := a.withRetries(ctx, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, a.clusterURL+"/v1/rules"+query, nil)
		if err != nil {
			return err
		}
		resp, err := a.client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		if h := resp.Header.Get(HeaderLeaderEpoch); h != "" {
			if e, perr := strconv.ParseUint(h, 10, 64); perr == nil {
				epoch = e
			}
		}
		body, err = io.ReadAll(resp.Body)
		return err
	})
	return body, epoch, err
}

// withRetries runs op up to 1+MaxRetries times with exponential
// backoff and seeded jitter between attempts.
func (a *Agent) withRetries(ctx context.Context, op func(context.Context) error) error {
	var lastErr error
	backoff := a.opts.BackoffBase
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return errors.Join(lastErr, err)
		}
		lastErr = op(ctx)
		if lastErr == nil {
			return nil
		}
		if attempt >= a.opts.MaxRetries {
			return lastErr
		}
		a.mRetries.Inc()
		// Jitter uniformly in [0.5, 1.5)x so a fleet of agents does not
		// re-dial a recovering controller in lockstep.
		wait := time.Duration(float64(backoff) * (0.5 + a.opts.RNG.Float64()))
		if err := a.sleep(ctx, wait); err != nil {
			return errors.Join(lastErr, err)
		}
		backoff *= 2
		if backoff > backoffMax {
			backoff = backoffMax
		}
	}
}

// Run syncs every period until the context is cancelled. The first
// sync happens immediately.
func (a *Agent) Run(ctx context.Context) {
	t := time.NewTicker(a.opts.Period)
	defer t.Stop()
	a.Sync(ctx)
	for {
		select {
		case <-t.C:
			a.Sync(ctx) // errors tolerated; next round retries
		case <-ctx.Done():
			return
		}
	}
}

// sleepCtx waits for d or until the context is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
