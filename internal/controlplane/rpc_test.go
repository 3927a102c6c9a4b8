package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/dataplane"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// cannedRPC answers every control RPC with one fixed response and
// remembers the last request. Answering allocates nothing, so what an
// RPC allocates around it is the control plane's own share, with no
// socket and no net/http client or server code in the count.
type cannedRPC struct {
	status  int
	header  http.Header
	body    []byte
	chunked bool  // answer without a declared length
	err     error // returned instead of a response when set

	last   *http.Request
	reader bytes.Reader
	resp   http.Response
}

func (c *cannedRPC) RoundTrip(req *http.Request) (*http.Response, error) {
	c.last = req
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	if c.err != nil {
		return nil, c.err
	}
	c.reader.Reset(c.body)
	c.resp = http.Response{StatusCode: c.status, Header: c.header, Body: c, ContentLength: int64(len(c.body))}
	if c.chunked {
		c.resp.ContentLength = -1
	}
	return &c.resp, nil
}

// read is how much of the body the caller read.
func (c *cannedRPC) read() int { return len(c.body) - c.reader.Len() }

func (c *cannedRPC) Read(p []byte) (int, error) { return c.reader.Read(p) }
func (c *cannedRPC) Close() error               { return nil }

// sameMap reports whether two headers are one map, not just equal ones.
func sameMap(a, b http.Header) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}

func newCannedGlobal(t *testing.T, tr http.RoundTripper) *Global {
	t.Helper()
	ctrl, err := core.NewController(topology.TwoClusters(40*time.Millisecond), chainApp(), core.ControllerConfig{DemandSmoothing: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGlobal(ctrl)
	g.SetTransport(tr)
	g.clusters = mustRegister(t, g.clusters, topology.West, "http://west.invalid")
	return g
}

// mustURL parses s, failing the test if it does not parse.
func mustURL(t testing.TB, s string) *url.URL {
	t.Helper()
	u, err := url.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// mustRegister is register for a base URL the test knows parses.
func mustRegister(t testing.TB, ps []peer, id topology.ClusterID, base string) []peer {
	t.Helper()
	ps, err := register(ps, id, base)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// TestControlRPCRequestShape: a report, a push and a lease request each
// reach the transport with the URL parsed at registration, the very
// *url.URL, and the shared header: the very jsonHeader map for plain
// POSTs, a per-round copy carrying the fencing headers for a replicated
// leader's push.
func TestControlRPCRequestShape(t *testing.T) {
	check := func(name string, tr *cannedRPC, wantURL *url.URL, shared bool) {
		t.Helper()
		req := tr.last
		if req == nil {
			t.Fatalf("%s: no request reached the transport", name)
		}
		if req.URL != wantURL {
			t.Errorf("%s: URL %q is not the one parsed at registration, %q", name, req.URL, wantURL)
		}
		if ct := req.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", name, ct)
		}
		if sameMap(req.Header, jsonHeader) != shared {
			t.Errorf("%s: header is jsonHeader itself = %v, want %v", name, !shared, shared)
		}
	}

	tr := &cannedRPC{status: http.StatusAccepted}
	c := NewCluster(topology.West, "http://global.invalid")
	c.SetTransport(tr)
	c.Ingest(feStats(900, 100))
	if err := c.Report(t.Context(), time.Second); err != nil {
		t.Fatal(err)
	}
	check("report", tr, c.ups[0].metricsURL, true)
	if got := tr.last.URL.String(); got != "http://global.invalid/v1/metrics" {
		t.Errorf("report URL %q", got)
	}

	tr = &cannedRPC{status: http.StatusNoContent}
	g := newCannedGlobal(t, tr)
	if err := g.push(t.Context(), routing.NewTable(1, nil), g.clusters); err != nil {
		t.Fatal(err)
	}
	check("push", tr, g.clusters[0].patchURL, true)
	if got := tr.last.URL.String(); got != "http://west.invalid/v1/patch" {
		t.Errorf("push URL %q", got)
	}

	tr = &cannedRPC{status: http.StatusOK, body: []byte(`{"granted":true,"holder":"http://a.invalid","epoch":1}`)}
	g = newCannedGlobal(t, tr)
	g.EnableHA("http://a.invalid", 0)
	g.campaign(t.Context())
	check("lease", tr, g.clusters[0].leaseURL, true)
	if !g.IsLeader() {
		t.Fatal("one granted lease of one acceptor did not make a leader")
	}

	tr.status, tr.body = http.StatusNoContent, nil
	if err := g.push(t.Context(), routing.NewTable(2, nil), g.clusters); err != nil {
		t.Fatal(err)
	}
	check("replicated push", tr, g.clusters[0].patchURL, false)
	if e, l := tr.last.Header.Get(headerLeaderEpoch), tr.last.Header.Get(headerLeader); e != "1" || l != "http://a.invalid" {
		t.Errorf("replicated push carries epoch %q leader %q, want 1 and http://a.invalid", e, l)
	}
	if len(jsonHeader) != 1 || len(noHeader) != 0 {
		t.Errorf("a shared header was written: %v, %v", jsonHeader, noHeader)
	}

	// Re-registering the same URL keeps the parsed endpoints; a new
	// URL replaces them, and one that does not parse is refused.
	ps := g.clusters
	if again := mustRegister(t, ps, topology.West, "http://west.invalid"); &again[0] != &ps[0] {
		t.Error("re-registering the same URL changed the peers")
	}
	if moved := mustRegister(t, ps, topology.West, "http://west2.invalid"); moved[0].patchURL.Host != "west2.invalid" || ps[0].patchURL.Host != "west.invalid" {
		t.Errorf("a moved cluster's patch URL reads %q, and the old peers' %q", moved[0].patchURL, ps[0].patchURL)
	}
	if _, err := register(ps, topology.West, "http://bad host"); err == nil {
		t.Error("a URL that does not parse was registered")
	}
}

// stalledServer accepts connections and reads what comes, and never
// answers.
func stalledServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				io.Copy(io.Discard, conn)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return "http://" + ln.Addr().String()
}

// TestControlRPCCarriesDeadline: every kind of control RPC, on the
// transport NewGlobal, NewCluster and NewAgent start with, is bounded by
// rpcTimeout with no deadline of the caller's: against a peer that
// accepts the connection and never answers, each fails within a few
// bounds, as a *url.Error whose cause is the connection's deadline
// (os.ErrDeadlineExceeded, not a context's). Where the loopback can be
// made to stall a dial (stalledDial), each RPC fails as soon against a
// peer that never completes the handshake. The bound is shortened to
// 100 ms; the caller's context, the net under the test, expires after
// 50 bounds.
func TestControlRPCCarriesDeadline(t *testing.T) {
	was := rpcTimeout
	rpcTimeout = 100 * time.Millisecond
	t.Cleanup(func() { rpcTimeout = was })

	p, psrv := newAgentProxy(t, dataplane.Config{})
	run := func(stage, base string, dial bool) {
		check := func(name string, call func(context.Context) error) {
			t.Helper()
			ctx, cancel := context.WithTimeout(t.Context(), 50*rpcTimeout)
			defer cancel()
			start := time.Now()
			err := call(ctx)
			took := time.Since(start)
			var ue *url.Error
			switch {
			case !errors.As(err, &ue) || !ue.Timeout():
				t.Errorf("%s %s: %v, want a *url.Error that timed out", stage, name, err)
			case !dial && !errors.Is(err, os.ErrDeadlineExceeded):
				t.Errorf("%s %s: %v, want the connection's deadline as its cause", stage, name, err)
			case took > 25*rpcTimeout:
				t.Errorf("%s %s: failed after %v, want within a few of %v", stage, name, took, rpcTimeout)
			}
		}

		c := NewCluster(topology.West, base)
		check("report", func(ctx context.Context) error {
			c.Ingest(feStats(900, 100))
			return c.Report(ctx, time.Second)
		})
		check("register", func(ctx context.Context) error { return c.Register(ctx, "http://west.invalid") })

		ctrl, err := core.NewController(topology.TwoClusters(40*time.Millisecond), chainApp(), core.ControllerConfig{DemandSmoothing: 1})
		if err != nil {
			t.Fatal(err)
		}
		g := NewGlobal(ctrl)
		g.clusters = mustRegister(t, nil, topology.West, base)
		check("push", func(ctx context.Context) error { return g.push(ctx, routing.NewTable(1, nil), g.clusters) })
		check("lease", func(ctx context.Context) error {
			_, err := g.requestLease(ctx, g.clusters[0].leaseURL, []byte(`{"candidate":"http://a.invalid","epoch":1}`))
			return err
		})
		check("snapshot", func(ctx context.Context) error {
			return rpc(ctx, g.rt, http.MethodGet, mustURL(t, base+"/v1/snapshot"), nil, nil, nil)
		})

		a, err := NewAgent(p, base, AgentOptions{MaxRetries: -1})
		if err != nil {
			t.Fatal(err)
		}
		generateTraffic(t, psrv) // a window for the push to send
		check("agent push", a.pushTelemetry)
		check("agent poll", a.pollRules)
	}
	run("stalled answer:", stalledServer(t), false)
	if base := stalledDial(t); base != "" {
		run("stalled dial:", base, true)
	}
}

// TestControlRPCErrorShape: a transport failure reads exactly as
// http.Client.Do reported it, as a *url.Error that still unwraps to the
// cause, and a non-2xx answer keeps its status and X-Slate-Reject marker
// through the callers' wrapping.
func TestControlRPCErrorShape(t *testing.T) {
	cause := errors.New("link down")
	const u = "http://global.invalid/v1/metrics"
	err := rpc(t.Context(), &cannedRPC{err: cause}, http.MethodPost, mustURL(t, u), jsonHeader, []byte("{}"), nil)
	var ue *url.Error
	if !errors.As(err, &ue) || !errors.Is(err, cause) {
		t.Fatalf("transport failure = %#v, want a *url.Error wrapping the cause", err)
	}
	req, _ := http.NewRequest(http.MethodPost, u, strings.NewReader("{}"))
	_, want := (&http.Client{Transport: &cannedRPC{err: cause}}).Do(req)
	if err.Error() != want.Error() {
		t.Fatalf("transport failure reads %q, http.Client.Do read %q", err, want)
	}

	tr := &cannedRPC{status: http.StatusConflict, header: http.Header{headerReject: {rejectStaleLeader}}}
	c := NewCluster(topology.West, "http://global.invalid")
	c.SetTransport(tr)
	err = c.Report(t.Context(), time.Second)
	if code, ok := statusCode(err); !ok || code != http.StatusConflict {
		t.Fatalf("409 answer: status %d, %v (err %v)", code, ok, err)
	}
	if r := rejectReason(err); r != rejectStaleLeader {
		t.Fatalf("409 answer: reject marker %q, want %q", r, rejectStaleLeader)
	}

	// The Agent's push and rules poll fail as they did through its own
	// client, (&http.Client{Timeout: 10 * time.Second}).Do, which took
	// any 2xx for a push and only 200 for a poll.
	p, psrv := newAgentProxy(t, dataplane.Config{})
	for _, tr := range []*cannedRPC{{err: cause}, {status: http.StatusServiceUnavailable}} {
		a, err := NewAgent(p, "http://cluster.invalid", AgentOptions{MaxRetries: -1})
		if err != nil {
			t.Fatal(err)
		}
		a.rt = tr
		generateTraffic(t, psrv) // a window for the push to send
		for _, row := range []struct {
			name, method, url string
			ok                func(code int) bool
			call              func(context.Context) error
		}{
			{"push", http.MethodPost, "http://cluster.invalid/v1/metrics", func(code int) bool { return code/100 == 2 }, a.pushTelemetry},
			{"poll", http.MethodGet, "http://cluster.invalid/v1/rules?since=0", func(code int) bool { return code == http.StatusOK }, a.pollRules},
		} {
			err := row.call(t.Context())
			req, _ := http.NewRequest(row.method, row.url, nil)
			resp, want := (&http.Client{Transport: tr, Timeout: 10 * time.Second}).Do(req)
			if want == nil {
				resp.Body.Close()
				if !row.ok(resp.StatusCode) {
					want = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			if want == nil {
				t.Fatalf("agent %s: the client took the canned answer", row.name)
			}
			if err == nil || err.Error() != "dataplane: agent "+row.name+": "+want.Error() {
				t.Errorf("agent %s failure reads %q, its client read %q", row.name, err, want)
			}
			if tr.err != nil && (!errors.As(err, &ue) || !errors.Is(err, cause)) {
				t.Errorf("agent %s transport failure = %#v, want a *url.Error wrapping the cause", row.name, err)
			}
		}
	}
}

// handlerRPC serves each control RPC in process with the handler of
// the daemon its host names, so RPCs that run at once reach the
// handlers, and their pooled buffers, at once. The body goes over with
// no declared length, as a chunked one would. Hosts in down fail.
type handlerRPC struct {
	hosts map[string]http.Handler
	down  map[string]bool
}

func (h handlerRPC) RoundTrip(req *http.Request) (*http.Response, error) {
	if h.down[req.URL.Host] {
		return nil, errors.New("unreachable")
	}
	in := httptest.NewRequestWithContext(req.Context(), req.Method, req.URL.RequestURI(), io.NopCloser(req.Body))
	in.Header = req.Header.Clone()
	rec := httptest.NewRecorder()
	h.hosts[req.URL.Host].ServeHTTP(rec, in)
	return rec.Result(), nil
}

// TestHandlerRPCKeepsQuery: handlerRPC hands a handler the request's
// query along with its path, so a rules poll from a proxy already at the
// cluster's version is answered with the empty patch, not a full one.
func TestHandlerRPCKeepsQuery(t *testing.T) {
	c := NewCluster(topology.West, "")
	c.ApplyTable(routing.NewTable(3, nil))
	tr := handlerRPC{hosts: map[string]http.Handler{"west.invalid": c.Handler()}}
	for _, q := range []struct {
		query string
		full  bool
	}{{"?since=3", false}, {"", true}} {
		var p routing.Patch
		err := rpc(t.Context(), tr, http.MethodGet, mustURL(t, "http://west.invalid/v1/rules"+q.query), nil, nil, func(_ *http.Response, b []byte) error {
			return json.Unmarshal(b, &p)
		})
		if err != nil {
			t.Fatal(err)
		}
		if p.Full != q.full || p.Version != 3 || len(p.Set) != 0 || len(p.Del) != 0 {
			t.Errorf("GET /v1/rules%s answered %+v, want full %v at version 3", q.query, p, q.full)
		}
	}
}

// TestConcurrentControlRPCs: 24 clusters report at once, then one push
// round reaches all of them on the push workers. Every report lands,
// every reachable cluster takes the table, and of two unreachable
// clusters the error names the first in cluster order, on every round.
// Last, the reports race a round that republishes the table.
func TestConcurrentControlRPCs(t *testing.T) {
	tr := handlerRPC{hosts: map[string]http.Handler{}, down: map[string]bool{"c05.invalid": true, "c17.invalid": true}}
	g := newCannedGlobal(t, tr)
	g.clusters = nil
	tr.hosts["global.invalid"] = g.Handler()
	var clusters []*Cluster
	for i := range 24 {
		id := topology.ClusterID(fmt.Sprintf("c%02d", i))
		c := NewCluster(id, "http://global.invalid")
		c.SetTransport(tr)
		tr.hosts[string(id)+".invalid"] = c.Handler()
		g.clusters = mustRegister(t, g.clusters, id, "http://"+string(id)+".invalid")
		clusters = append(clusters, c)
	}

	var wg sync.WaitGroup
	for _, c := range clusters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Ingest(feStats(900, 100))
			if err := c.Report(t.Context(), time.Second); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for _, c := range clusters {
		if liveIngest(g, c.id) == nil {
			t.Fatalf("report of %s did not land", c.id)
		}
	}

	for v := uint64(1); v <= 4; v++ {
		err := g.push(t.Context(), routing.NewTable(v, nil), g.clusters)
		if err == nil || !strings.HasPrefix(err.Error(), "push to c05: ") {
			t.Fatalf("round %d: error %v, want the push to c05's", v, err)
		}
		for _, c := range clusters {
			want := v
			if tr.down[string(c.id)+".invalid"] {
				want = 0
			}
			if got := c.Table().Version; got != want {
				t.Fatalf("round %d: %s at table version %d, want %d", v, c.id, got, want)
			}
		}
	}

	// Reports race a round that republishes the last table: each
	// reachable cluster is skipped on its report's 200 or sent the
	// keep-alive, and not both.
	last := g.published
	skips := g.mPushSkips.Value()
	applied := make([]uint64, len(clusters))
	for i, c := range clusters {
		applied[i] = c.mPatches.Value()
	}
	for _, c := range clusters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Ingest(feStats(900, 100))
			if err := c.Report(t.Context(), time.Second); err != nil {
				t.Error(err)
			}
		}()
	}
	if err := g.push(t.Context(), last, g.clusters); err == nil || !strings.HasPrefix(err.Error(), "push to c05: ") {
		t.Errorf("republish: error %v, want the push to c05's", err)
	}
	wg.Wait()
	pushed := uint64(0)
	for i, c := range clusters {
		pushed += c.mPatches.Value() - applied[i]
	}
	if skipped := g.mPushSkips.Value() - skips; skipped+pushed != 22 {
		t.Errorf("republish skipped %d and pushed %d of 22 reachable clusters", skipped, pushed)
	}
}

// TestReportAllocations pins the heap objects of one Ingest+Report over
// a canned transport, collect, delta report, encoding and RPC included.
// Through http.Client.Do, with the URL joined per call, it was 48; with
// rpc's own request but a URL parsed and a timeout context made per
// call, 19.
func TestReportAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random, so counts vary")
	}
	c := NewCluster(topology.West, "http://global.invalid")
	c.SetTransport(&cannedRPC{status: http.StatusAccepted})
	stats := feStats(900, 100)
	ctx := context.Background()
	report := func() {
		c.Ingest(stats)
		if err := c.Report(ctx, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// The first report is full; the measured ones are deltas.
	report()
	if got := int(testing.AllocsPerRun(100, report)); got != 12 {
		t.Errorf("Ingest+Report allocates %d heap objects, want 12", got)
	}
}

// TestControlBodyCapped: a control POST whose body passes maxBodyBytes
// gets 413 and changes nothing, whether it declares its length (refused
// before a byte is read) or streams it chunked (reading stops at the
// cap). The bodies are valid requests padded with whitespace, which
// without the cap decode and apply.
func TestControlBodyCapped(t *testing.T) {
	pad := strings.Repeat(" ", maxBodyBytes)
	report := `{"cluster":"west","window_ms":1000,"epoch":1,"stats":[{"Key":{"Service":"gateway","Class":"default","Cluster":"west"},"RPS":5}]}` + pad
	for _, chunked := range []bool{false, true} {
		g := newCannedGlobal(t, &cannedRPC{})
		body := &countingReader{r: strings.NewReader(report)}
		req := httptest.NewRequest(http.MethodPost, "/v1/metrics", body)
		req.ContentLength = int64(len(report))
		if chunked {
			req.ContentLength = -1
		}
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("report of %d bytes (chunked %v) = %d, want 413", len(report), chunked, rec.Code)
		}
		if liveIngest(g, topology.West) != nil {
			t.Fatalf("an oversized report (chunked %v) reached the ingest", chunked)
		}
		if chunked && body.n > maxBodyBytes+1 {
			t.Fatalf("chunked body read %d bytes, want at most %d", body.n, maxBodyBytes+1)
		}
		if !chunked && body.n != 0 {
			t.Fatalf("body declaring %d bytes was read (%d bytes)", len(report), body.n)
		}
	}

	c := NewCluster(topology.West, "")
	c.ApplyTable(routing.NewTable(3, nil))
	patch := `{"from_version":3,"version":4}` + pad
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/patch", strings.NewReader(patch)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("patch of %d bytes = %d, want 413", len(patch), rec.Code)
	}
	if v := c.Table().Version; v != 3 {
		t.Fatalf("an oversized patch moved the cluster to version %d", v)
	}
}

// TestControlResponseCapped: a peer that answers a lease request, a
// snapshot fetch or a rules poll with a valid body padded past
// maxBodyBytes fails the RPC, and nothing changes: no lease, no cached
// snapshot, no new table. An answer that declares its length is refused
// before a byte is read; one that does not, once reading crosses the
// cap. Without the cap each body decodes and applies.
func TestControlResponseCapped(t *testing.T) {
	pad := strings.Repeat(" ", maxBodyBytes)
	for _, chunked := range []bool{false, true} {
		answer := func(body string) *cannedRPC {
			return &cannedRPC{status: http.StatusOK, body: []byte(body + pad), chunked: chunked}
		}
		checkRead := func(what string, tr *cannedRPC) {
			t.Helper()
			if chunked && tr.read() > maxBodyBytes+1 {
				t.Errorf("%s: read %d bytes of an unsized answer, want at most %d", what, tr.read(), maxBodyBytes+1)
			}
			if !chunked && tr.read() != 0 {
				t.Errorf("%s: read %d bytes of an answer declaring %d", what, tr.read(), len(tr.body))
			}
		}

		tr := answer(`{"granted":true,"holder":"http://a.invalid","epoch":1}`)
		g := newCannedGlobal(t, tr)
		g.EnableHA("http://a.invalid", 0)
		g.campaign(t.Context())
		if g.IsLeader() {
			t.Errorf("an oversized lease grant (chunked %v) made a leader", chunked)
		}
		checkRead("lease", tr)

		tr = answer(`{"format":1,"version":7}`)
		g = newCannedGlobal(t, tr)
		g.EnableHA("http://a.invalid", 0)
		g.leaderURL = "http://west.invalid"
		g.fetchSnapshot(t.Context())
		if g.snapCache != nil {
			t.Errorf("an oversized snapshot (chunked %v) was cached", chunked)
		}
		checkRead("snapshot", tr)

		tr = answer(`{"from_version":0,"version":3,"full":true}`)
		p, _ := newAgentProxy(t, dataplane.Config{})
		a, err := NewAgent(p, "http://cluster.invalid", AgentOptions{MaxRetries: -1})
		if err != nil {
			t.Fatal(err)
		}
		a.rt = tr
		if err := a.pollRules(t.Context()); !errors.Is(err, errBodyTooLarge) {
			t.Errorf("oversized rules answer (chunked %v): error %v, want %v", chunked, err, errBodyTooLarge)
		}
		if v := p.TableVersion(); v != 0 {
			t.Errorf("an oversized rules answer (chunked %v) moved the proxy to version %d", chunked, v)
		}
		checkRead("rules poll", tr)
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// cannedControlServer answers each control request it reads with the
// same 202 and no body. It reads the head into one fixed buffer, takes
// the body's length from its Content-Length line and skips that many
// bytes, so it allocates nothing per request: an RPC's allocations are
// all the caller's.
func cannedControlServer(t testing.TB) string {
	t.Helper()
	resp := []byte("HTTP/1.1 202 Accepted\r\nContent-Length: 0\r\n\r\n")
	end, clen := []byte("\r\n\r\n"), []byte("\r\nContent-Length: ")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				buf := make([]byte, 64<<10)
				n, skip := 0, 0
				for {
					m, err := conn.Read(buf[n:])
					if err != nil {
						return
					}
					n += m
					for {
						if skip > 0 {
							k := min(skip, n)
							n, skip = copy(buf, buf[k:n]), skip-k
							if skip > 0 {
								break
							}
						}
						i := bytes.Index(buf[:n], end)
						if i < 0 {
							break
						}
						if j := bytes.Index(buf[:i+2], clen); j >= 0 {
							for _, b := range buf[j+len(clen) : i+2] {
								if b < '0' || b > '9' {
									break
								}
								skip = skip*10 + int(b-'0')
							}
						}
						if _, err := conn.Write(resp); err != nil {
							return
						}
						n = copy(buf, buf[i+len(end):n])
					}
					if n == len(buf) {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	return "http://" + ln.Addr().String()
}

// TestControlRPCAllocs pins the heap objects of one control RPC, a
// report's POST with its JSON body, answered 202 over a pooled loopback
// connection of the transport a Cluster starts with, under a context
// that can be cancelled, as a daemon's is. Through net/http's request
// writer, with a URL parsed and a timeout context made per call, it was
// 29.
func TestControlRPCAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random, so counts vary")
	}
	u := mustURL(t, cannedControlServer(t)+"/v1/metrics")
	rt := NewTransport()
	defer rt.CloseIdleConnections()
	body := bytes.Repeat([]byte("x"), 900)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := testing.AllocsPerRun(200, func() {
		if err := rpc(ctx, rt, http.MethodPost, u, jsonHeader, body, nil); err != nil {
			t.Fatal(err)
		}
	})
	if n := int(got); n != 11 {
		t.Errorf("a control RPC allocates %d heap objects, want 11", n)
	}
}
