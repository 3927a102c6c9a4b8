package controlplane

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/dataplane"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/telemetry"
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
	g.clusters = register(g.clusters, topology.West, "http://west.invalid")
	return g
}

// TestControlRPCCarriesDeadline: a report, a push and a lease request
// each reach the transport with a deadline no further off than
// rpcTimeout, the URL joined at registration, and the shared header —
// the very jsonHeader map for plain POSTs, a per-round copy carrying the
// fencing headers for a replicated leader's push.
func TestControlRPCCarriesDeadline(t *testing.T) {
	check := func(name string, tr *cannedRPC, wantURL string, shared bool) {
		t.Helper()
		req := tr.last
		if req == nil {
			t.Fatalf("%s: no request reached the transport", name)
		}
		dl, ok := req.Context().Deadline()
		if !ok {
			t.Fatalf("%s: request carries no deadline", name)
		}
		if left := time.Until(dl); left <= 0 || left > rpcTimeout {
			t.Errorf("%s: deadline %v away, want within (0, %v]", name, left, rpcTimeout)
		}
		if got := req.URL.String(); got != wantURL {
			t.Errorf("%s: URL %q, want %q", name, got, wantURL)
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
	check("report", tr, "http://global.invalid/v1/metrics", true)

	tr = &cannedRPC{status: http.StatusNoContent}
	g := newCannedGlobal(t, tr)
	if err := g.push(t.Context(), routing.NewTable(1, nil), g.clusters); err != nil {
		t.Fatal(err)
	}
	check("push", tr, "http://west.invalid/v1/patch", true)

	tr = &cannedRPC{status: http.StatusOK, body: []byte(`{"granted":true,"holder":"http://a.invalid","epoch":1}`)}
	g = newCannedGlobal(t, tr)
	g.EnableHA("http://a.invalid", 0)
	g.campaign(t.Context())
	check("lease", tr, "http://west.invalid/v1/lease", true)
	if !g.IsLeader() {
		t.Fatal("one granted lease of one acceptor did not make a leader")
	}

	tr.status, tr.body = http.StatusNoContent, nil
	if err := g.push(t.Context(), routing.NewTable(2, nil), g.clusters); err != nil {
		t.Fatal(err)
	}
	check("replicated push", tr, "http://west.invalid/v1/patch", false)
	if e, l := tr.last.Header.Get(headerLeaderEpoch), tr.last.Header.Get(headerLeader); e != "1" || l != "http://a.invalid" {
		t.Errorf("replicated push carries epoch %q leader %q, want 1 and http://a.invalid", e, l)
	}
	if len(jsonHeader) != 1 {
		t.Errorf("jsonHeader was written: %v", jsonHeader)
	}
}

// TestControlRPCErrorShape: a transport failure reads exactly as
// http.Client.Do reported it, as a *url.Error that still unwraps to the
// cause, and a non-2xx answer keeps its status and X-Slate-Reject marker
// through the callers' wrapping.
func TestControlRPCErrorShape(t *testing.T) {
	cause := errors.New("link down")
	const u = "http://global.invalid/v1/metrics"
	err := rpc(t.Context(), &cannedRPC{err: cause}, http.MethodPost, u, jsonHeader, []byte("{}"), nil)
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
	p, _ := newAgentProxy(t, dataplane.Config{})
	for _, tr := range []*cannedRPC{{err: cause}, {status: http.StatusServiceUnavailable}} {
		a, err := NewAgent(p, "http://cluster.invalid", AgentOptions{MaxRetries: -1})
		if err != nil {
			t.Fatal(err)
		}
		a.rt = tr
		a.pending = [][]telemetry.WindowStats{feStats(900, 100)}
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
	in := httptest.NewRequestWithContext(req.Context(), req.Method, req.URL.Path, io.NopCloser(req.Body))
	in.Header = req.Header.Clone()
	rec := httptest.NewRecorder()
	h.hosts[req.URL.Host].ServeHTTP(rec, in)
	return rec.Result(), nil
}

// TestConcurrentControlRPCs: 24 clusters report at once, then one push
// round reaches all of them on the push workers. Every report lands,
// every reachable cluster takes the table, and of two unreachable
// clusters the error names the first in cluster order, on every round.
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
		g.clusters = register(g.clusters, id, "http://"+string(id)+".invalid")
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
}

// TestReportAllocations pins the heap objects of one Ingest+Report over
// a canned transport, collect, delta report, encoding and RPC included.
// Through http.Client.Do, with the URL joined per call, it was 48.
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
	if got := int(testing.AllocsPerRun(100, report)); got != 20 {
		t.Errorf("Ingest+Report allocates %d heap objects, want 20", got)
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
