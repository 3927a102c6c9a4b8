package controlplane

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"github.com/servicelayernetworking/slate/internal/dataplane"
	"github.com/servicelayernetworking/slate/internal/obs"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/sim"
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
	// is jittered uniformly in [0.5, 1.5)x from a stream seeded by Seed.
	BackoffBase time.Duration
	// Seed seeds the backoff jitter stream.
	Seed int64
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
	return o
}

// Agent connects a standalone (out-of-process) dataplane.Proxy to its
// cluster controller: it pushes the proxy's telemetry windows upstream
// (POST /v1/metrics) and polls for routing-table updates
// (GET /v1/rules). In-process deployments skip the Agent and use
// Cluster.AddProxy instead; the Agent is what cmd/slate-proxy runs so
// a SLATE deployment can span real processes and hosts.
//
// The Agent is hardened against a faulty control plane: each RPC is
// retried with exponential backoff and seeded jitter within its round.
// A telemetry window whose push still fails is dropped and counted,
// not carried into a later round: the cluster controller merges what
// arrives into its current window, so a late window would read as
// current load. The DES drops a missed control tick's window the same
// way.
type Agent struct {
	proxy  *dataplane.Proxy
	opts   AgentOptions
	rt     http.RoundTripper // a NewTransport of its own; tests swap it
	jitter *sim.RNG          // the backoff jitter stream, seeded by opts.Seed
	// metricsURL and rulesURL are the cluster controller's endpoints,
	// parsed once; a poll sets a copy's query.
	metricsURL, rulesURL *url.URL

	// leaderEpoch is the control plane's fenced leader epoch as last
	// reported on a rules response; failovers counts observed changes.
	// Only touched from Sync (one goroutine), so no lock.
	leaderEpoch uint64
	failovers   int
	// sleep is swapped by tests to avoid real backoff waits.
	sleep func(ctx context.Context, d time.Duration) error

	mRetries   *obs.Counter
	mDropped   *obs.Counter
	mResyncs   *obs.Counter
	mFailovers *obs.Counter
}

// NewAgent wires a proxy to a cluster controller base URL. Zero
// options take their documented defaults.
func NewAgent(p *dataplane.Proxy, clusterURL string, opts AgentOptions) (*Agent, error) {
	if p == nil || clusterURL == "" {
		return nil, fmt.Errorf("dataplane: agent needs a proxy and a cluster controller URL")
	}
	metricsURL, err := url.Parse(clusterURL + "/v1/metrics")
	if err != nil {
		return nil, fmt.Errorf("dataplane: agent: %w", err)
	}
	rulesURL, err := url.Parse(clusterURL + "/v1/rules")
	if err != nil {
		return nil, fmt.Errorf("dataplane: agent: %w", err)
	}
	opts = opts.withDefaults()
	reg := obs.Default()
	svc, cl := p.Service(), string(p.Cluster())
	return &Agent{
		proxy:      p,
		opts:       opts,
		rt:         NewTransport(),
		jitter:     sim.NewRNG(opts.Seed).DeriveNamed("agent-backoff"),
		metricsURL: metricsURL,
		rulesURL:   rulesURL,
		sleep:      sleepCtx,
		mRetries: reg.CounterVec("slate_agent_retries_total",
			"Control-plane RPC retry attempts (beyond the first try).",
			"service", "cluster").With(svc, cl),
		mDropped: reg.CounterVec("slate_agent_dropped_windows_total",
			"Telemetry windows dropped because their push failed every retry.",
			"service", "cluster").With(svc, cl),
		mResyncs: reg.CounterVec("slate_agent_rule_resyncs_total",
			"Rule polls that fell back to a full-table fetch after a patch version gap.",
			"service", "cluster").With(svc, cl),
		mFailovers: reg.CounterVec("slate_agent_leader_failovers_total",
			"Leader-epoch changes observed on rule polls.",
			"service", "cluster").With(svc, cl),
	}, nil
}

// Sync performs one round: upload the telemetry accumulated since the
// last round, then fetch and apply the current routing table. The
// context bounds both RPCs so an agent shutdown cancels an in-flight
// round instead of waiting out network timeouts. Errors are returned
// but non-fatal: the proxy keeps serving with its last rules (a real
// data plane must survive control-plane outages).
func (a *Agent) Sync(ctx context.Context) error {
	pushErr := a.pushTelemetry(ctx)
	pollErr := a.pollRules(ctx)
	return errors.Join(pushErr, pollErr)
}

// pushTelemetry flushes the proxy's window and uploads it, retried
// within the round. A window whose push fails every retry is dropped
// and counted in slate_agent_dropped_windows_total.
func (a *Agent) pushTelemetry(ctx context.Context) error {
	stats := a.proxy.FlushTelemetry(a.opts.Period)
	if len(stats) == 0 {
		return nil
	}
	body, err := json.Marshal(stats)
	if err != nil {
		return err
	}
	err = a.withRetries(ctx, func(ctx context.Context) error {
		return rpc(ctx, a.rt, http.MethodPost, a.metricsURL, jsonHeader, body, nil)
	})
	if err != nil {
		a.mDropped.Inc()
		return fmt.Errorf("dataplane: agent push: %w", err)
	}
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
	patch, epoch, err := a.getRules(ctx, "since="+strconv.FormatUint(a.proxy.TableVersion(), 10))
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
	if err := a.proxy.ApplyPatch(patch); err != nil {
		if !errors.Is(err, routing.ErrVersionGap) {
			return fmt.Errorf("dataplane: agent poll: %w", err)
		}
		return a.resyncRules(ctx)
	}
	return nil
}

// resyncRules fetches the full table, as a full patch (GET /v1/rules
// without a query), after a patch failed to apply or a leader failover
// was observed.
func (a *Agent) resyncRules(ctx context.Context) error {
	a.mResyncs.Inc()
	patch, epoch, err := a.getRules(ctx, "")
	if err != nil {
		return fmt.Errorf("dataplane: agent resync: %w", err)
	}
	if epoch > 0 {
		a.leaderEpoch = epoch
	}
	if err := a.proxy.ApplyPatch(patch); err != nil {
		return fmt.Errorf("dataplane: agent resync: %w", err)
	}
	return nil
}

// getRules performs one (retried) GET of the controller's rules
// endpoint with URL query query and returns the patch it answered plus
// the leader epoch the controller advertised (0 when it did not).
func (a *Agent) getRules(ctx context.Context, query string) (*routing.Patch, uint64, error) {
	var body []byte
	var epoch uint64
	u := *a.rulesURL
	u.RawQuery = query
	err := a.withRetries(ctx, func(ctx context.Context) error {
		return rpc(ctx, a.rt, http.MethodGet, &u, nil, nil, func(resp *http.Response, b []byte) error {
			if h := resp.Header.Get(headerLeaderEpoch); h != "" {
				if e, perr := strconv.ParseUint(h, 10, 64); perr == nil {
					epoch = e
				}
			}
			body = append(body[:0], b...)
			return nil
		})
	})
	if err != nil {
		return nil, 0, err
	}
	var patch routing.Patch
	if err := json.Unmarshal(body, &patch); err != nil {
		return nil, 0, err
	}
	return &patch, epoch, nil
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
		wait := time.Duration(float64(backoff) * (0.5 + a.jitter.Float64()))
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
