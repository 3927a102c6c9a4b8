package dataplane

import (
	"bytes"
	"compress/gzip"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/servicelayernetworking/slate/internal/obs"
	"github.com/servicelayernetworking/slate/internal/sim"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// upstream is a test server that keeps the header of every request it
// serves and counts the connections it accepts.
type upstream struct {
	*httptest.Server
	accepts atomic.Int32
	mu      sync.Mutex
	headers []http.Header
}

func newUpstream(t *testing.T, h http.Handler) *upstream {
	t.Helper()
	u := &upstream{}
	u.Server = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		u.mu.Lock()
		u.headers = append(u.headers, r.Header.Clone())
		u.mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	u.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			u.accepts.Add(1)
		}
	}
	u.Start()
	t.Cleanup(u.Close)
	return u
}

// sidecarPair wires caller → callee: the callee's sidecar fronts app and
// is served by an upstream, so a test sees what arrives at the peer
// sidecar (from the caller's outbound pass) and at the app (from the
// callee's inbound pass). Both run in one cluster, so every pick is
// local.
func sidecarPair(t *testing.T, app http.Handler) (caller *httptest.Server, peer, appSrv *upstream) {
	t.Helper()
	reg := newRegistry()
	appSrv = newUpstream(t, app)
	callee, err := New(Config{Service: "callee", Cluster: topology.West, LocalApp: appSrv.URL, Resolver: reg, RNG: sim.NewRNG(1), Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	peer = newUpstream(t, callee)
	reg.add("callee", topology.West, peer.URL)
	_, caller = newProxy(t, "caller", topology.West, appSrv.URL, reg, nil)
	return caller, peer, appSrv
}

// passes are the two ways a request reaches the app: straight into its
// sidecar (inbound), or from a caller's app through the caller's sidecar
// and then the callee's (outbound, then inbound).
func passes(caller, peer string) []struct{ name, base, outbound string } {
	return []struct{ name, base, outbound string }{
		{"inbound", peer, ""},
		{"outbound", caller, "callee"},
	}
}

// TestProxyPassesRedirectsThrough: a sidecar hands the app's answer back
// as it came. Following a redirect is the caller's decision; a proxy
// that follows it answers 200 from a URL the caller never asked for.
func TestProxyPassesRedirectsThrough(t *testing.T) {
	caller, peer, _ := sidecarPair(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/moved" {
			http.Redirect(w, r, "/target", http.StatusFound)
			return
		}
		io.WriteString(w, "target")
	}))
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	for _, pass := range passes(caller.URL, peer.URL) {
		req, _ := http.NewRequest(http.MethodGet, pass.base+"/moved", nil)
		if pass.outbound != "" {
			req.Header.Set(HeaderOutbound, pass.outbound)
		}
		resp, err := noFollow.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusFound || resp.Header.Get("Location") != "/target" {
			t.Errorf("%s: status %d, Location %q; want 302 to /target", pass.name, resp.StatusCode, resp.Header.Get("Location"))
		}
	}
}

// TestProxyDropsHopByHopHeaders: a client's "Connection: close", and the
// field it names, reach neither the peer sidecar nor the app, so each
// sidecar keeps reusing its one pooled upstream connection.
func TestProxyDropsHopByHopHeaders(t *testing.T) {
	caller, peer, app := sidecarPair(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	check := func(pass, who string, u *upstream) {
		u.mu.Lock()
		defer u.mu.Unlock()
		for _, h := range u.headers {
			if len(h["Connection"]) > 0 || len(h["X-Hop"]) > 0 || h.Get("X-End") != "1" {
				t.Fatalf("%s: %s saw Connection %q, X-Hop %q, X-End %q; want only X-End", pass, who, h["Connection"], h["X-Hop"], h.Get("X-End"))
			}
		}
		u.headers = nil
	}
	const n = 5
	for _, pass := range passes(caller.URL, peer.URL) {
		peer.mu.Lock()
		peer.headers = nil // in the inbound pass the client itself calls the peer
		peer.mu.Unlock()
		peerAccepts := peer.accepts.Load()
		for i := 0; i < n; i++ {
			req, _ := http.NewRequest(http.MethodGet, pass.base+"/x", nil)
			req.Header.Set("Connection", "close, X-Hop")
			req.Header.Set("X-Hop", "1")
			req.Header.Set("X-End", "1")
			if pass.outbound != "" {
				req.Header.Set(HeaderOutbound, pass.outbound)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		check(pass.name, "the app", app)
		if pass.outbound != "" {
			check(pass.name, "the peer sidecar", peer)
			if got := peer.accepts.Load() - peerAccepts; got != 1 {
				t.Errorf("%s: the peer sidecar accepted %d connections for %d requests, want 1", pass.name, got, n)
			}
		}
	}
	if got := app.accepts.Load(); got != 1 {
		t.Errorf("the app accepted %d connections for %d requests, want 1", got, 2*n)
	}
}

// TestProxyAddsNoAcceptEncoding: a sidecar forwards the client's
// Accept-Encoding, or its absence, as it came, and relays the app's
// answer as the app framed it. The app here gzips only when asked. A
// client that asks for nothing must not be answered through a gzip
// request the sidecar made up; one that asks must get the app's gzip.
func TestProxyAddsNoAcceptEncoding(t *testing.T) {
	var mu sync.Mutex
	var asked []string
	caller, peer, _ := sidecarPair(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		asked = append(asked, r.Header.Get("Accept-Encoding"))
		mu.Unlock()
		if r.Header.Get("Accept-Encoding") != "gzip" {
			io.WriteString(w, "hello")
			return
		}
		w.Header().Set("Content-Encoding", "gzip")
		zw := gzip.NewWriter(w)
		io.WriteString(zw, "hello")
		zw.Close()
	}))
	client := &http.Transport{DisableCompression: true} // sends Accept-Encoding only when the request has it
	defer client.CloseIdleConnections()
	for _, pass := range passes(caller.URL, peer.URL) {
		for _, accept := range []string{"", "gzip"} {
			mu.Lock()
			asked = nil
			mu.Unlock()
			req, _ := http.NewRequest(http.MethodGet, pass.base+"/x", nil)
			if accept != "" {
				req.Header.Set("Accept-Encoding", accept)
			}
			if pass.outbound != "" {
				req.Header.Set(HeaderOutbound, pass.outbound)
			}
			resp, err := client.RoundTrip(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			mu.Lock()
			if len(asked) != 1 || asked[0] != accept {
				t.Errorf("%s, client Accept-Encoding %q: the app saw %q", pass.name, accept, asked)
			}
			mu.Unlock()
			gzipped := resp.Header.Get("Content-Encoding") == "gzip"
			if gzipped != (accept == "gzip") || !gzipped && string(body) != "hello" {
				t.Errorf("%s, client Accept-Encoding %q: got Content-Encoding %q, body %q",
					pass.name, accept, resp.Header.Get("Content-Encoding"), body)
			}
		}
	}
}

// TestProxyKeepsBodyFraming: a forwarded body keeps the framing it came
// with. A known length arrives unchunked with its Content-Length, a
// chunked body stays chunked, and an empty body arrives as no body.
func TestProxyKeepsBodyFraming(t *testing.T) {
	type framing struct {
		length int64
		te     string
		n      int64
	}
	var mu sync.Mutex
	var got framing
	caller, peer, _ := sidecarPair(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := io.Copy(io.Discard, r.Body)
		mu.Lock()
		got = framing{r.ContentLength, strings.Join(r.TransferEncoding, ","), n}
		mu.Unlock()
	}))
	cases := []struct {
		name string
		body func() io.Reader
		want framing
	}{
		{"known length", func() io.Reader { return bytes.NewReader(make([]byte, 64)) }, framing{64, "", 64}},
		{"chunked", func() io.Reader { return io.MultiReader(strings.NewReader("hello")) }, framing{-1, "chunked", 5}},
		{"empty", func() io.Reader { return http.NoBody }, framing{0, "", 0}},
	}
	for _, pass := range passes(caller.URL, peer.URL) {
		for _, c := range cases {
			req, _ := http.NewRequest(http.MethodPost, pass.base+"/x", c.body())
			if pass.outbound != "" {
				req.Header.Set(HeaderOutbound, pass.outbound)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			mu.Lock()
			if got != c.want {
				t.Errorf("%s, %s body: the app saw Content-Length %d, Transfer-Encoding %q, %d bytes; want %d, %q, %d",
					pass.name, c.name, got.length, got.te, got.n, c.want.length, c.want.te, c.want.n)
			}
			mu.Unlock()
		}
	}
}

// cannedTransport answers every round trip with the same small response
// and allocates nothing doing so, so what a pass allocates around it is
// the sidecar's own share, with no socket and no net/http client or
// server code in the count.
type cannedTransport struct {
	header http.Header
	body   bytes.Reader
	resp   http.Response
}

var cannedBody = make([]byte, 128)

func (c *cannedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	c.body.Reset(cannedBody)
	c.resp = http.Response{StatusCode: http.StatusOK, Header: c.header, Body: c, ContentLength: int64(len(cannedBody))}
	return &c.resp, nil
}

func (c *cannedTransport) Read(p []byte) (int, error)         { return c.body.Read(p) }
func (c *cannedTransport) WriteTo(w io.Writer) (int64, error) { return c.body.WriteTo(w) }
func (c *cannedTransport) Close() error                       { return nil }

// TestPassAllocations pins the heap objects one sidecar pass allocates
// beyond building its request and recorder: a mid-chain inbound pass
// (a context set, 64-byte body) and an outbound pass to a peer, each
// round-tripping through cannedTransport. Three of them are the
// recorder's own copy of the response header at WriteHeader; the rest
// are the sidecar's. Of those, the inbound pass's context is two: its
// value string and the one-element slice holding it. The outbound pass
// forwards the context the app copied as it came, so its context costs
// nothing. When a pass still went through http.Client.Do and re-added
// every header value one at a time, the same passes measured 25 inbound
// and 25 outbound; with class, trace, span and source in four fields,
// 12 and 11.
func TestPassAllocations(t *testing.T) {
	tr := &cannedTransport{header: http.Header{
		"Content-Type":   {"application/octet-stream"},
		"Content-Length": {"128"},
		"Date":           {"Thu, 15 Oct 2026 00:00:00 GMT"},
	}}
	p, err := New(Config{
		Service: "svc", Cluster: topology.West, LocalApp: "http://app.invalid",
		Resolver:  ResolverFunc(func(string, topology.ClusterID) (string, error) { return "http://peer.invalid", nil }),
		Transport: tr, RNG: sim.NewRNG(1), Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	reqBody := make([]byte, 64)
	// A mid-chain context: the caller ran in this cluster, as it does on
	// the outbound pass, where the app copies its inbound context.
	hopCtx := hopContext{trace: 0x1f, parent: 0x2e, source: string(topology.West), class: "default"}.String()
	fixture := func(outbound string) (*http.Request, *httptest.ResponseRecorder) {
		req := httptest.NewRequest(http.MethodPost, "/svc", bytes.NewReader(reqBody))
		req.Header.Set(HeaderContext, hopCtx)
		if outbound != "" {
			req.Header.Set(HeaderOutbound, outbound)
		}
		rec := httptest.NewRecorder()
		rec.Body.Grow(2 * len(cannedBody))
		return req, rec
	}
	for _, c := range []struct {
		name     string
		outbound string
		want     float64
	}{
		{"inbound", "", 12},
		{"outbound", "peer", 10},
	} {
		base := testing.AllocsPerRun(200, func() { fixture(c.outbound) })
		pass := testing.AllocsPerRun(200, func() {
			req, rec := fixture(c.outbound)
			p.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK || rec.Body.Len() != len(cannedBody) {
				t.Fatalf("%s: status %d, %d bytes", c.name, rec.Code, rec.Body.Len())
			}
		})
		if got := pass - base; got != c.want { //slate:nolint floatcmp -- AllocsPerRun returns an integer-valued count
			t.Errorf("%s pass: %.0f heap objects beyond the fixture's %.0f, want %.0f", c.name, got, base, c.want)
		}
	}
}
