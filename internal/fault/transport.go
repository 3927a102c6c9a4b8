package fault

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
)

// HostMap resolves targets by the request's host:port — the emulation
// mesh registers every component's listener here as it starts. Safe
// for concurrent use. Unregistered hosts resolve to Target(host),
// which matches no crash or partition state.
type HostMap struct {
	mu sync.RWMutex
	m  map[string]Target
}

// NewHostMap returns an empty host map.
func NewHostMap() *HostMap { return &HostMap{m: make(map[string]Target)} }

// Register maps a host:port (a bare URL is tolerated) to a target.
func (h *HostMap) Register(hostport string, t Target) {
	hostport = strings.TrimPrefix(hostport, "http://")
	hostport = strings.TrimPrefix(hostport, "https://")
	h.mu.Lock()
	h.m[hostport] = t
	h.mu.Unlock()
}

// TargetOf returns the target a request addresses. A nil map targets
// every request by its URL host.
func (h *HostMap) TargetOf(req *http.Request) Target {
	if h == nil {
		return Target(req.URL.Host)
	}
	h.mu.RLock()
	t, ok := h.m[req.URL.Host]
	h.mu.RUnlock()
	if !ok {
		return Target(req.URL.Host)
	}
	return t
}

// Transport is an http.RoundTripper that drops requests the Injector
// blocks before delegating to the base transport. It is what the Agent,
// Cluster and Global clients are wrapped with under fault injection.
type Transport struct {
	base     http.RoundTripper
	injector *Injector
	from     Target
	to       *HostMap
}

// NewTransport wraps base, which must not be nil, so that requests from
// `from` to the target `to` resolves suffer inj's faults. A nil map
// targets requests by their URL host.
func NewTransport(base http.RoundTripper, inj *Injector, from Target, to *HostMap) *Transport {
	return &Transport{base: base, injector: inj, from: from, to: to}
}

// RoundTrip implements http.RoundTripper. Drops close the request body
// as the contract requires.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	to := t.to.TargetOf(req)
	if t.injector.blocked(t.from, to) {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("fault: %s -> %s dropped: %w", t.from, to, ErrInjected)
	}
	return t.base.RoundTrip(req)
}
