package dataplane

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// controlRequest builds a request the way the control plane's rpc does:
// a URL parsed once, a shared header, and a body of known length that
// GetBody can replay.
func controlRequest(t testing.TB, method, rawURL string, h http.Header, body []byte) *http.Request {
	t.Helper()
	u, err := url.Parse(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	if h == nil {
		h = http.Header{}
	}
	req := &http.Request{Method: method, URL: u, Header: h}
	if len(body) > 0 {
		req.Body, req.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
	}
	return req
}

// readBack is what http.ReadRequest reads from a written request.
type readBack struct {
	method, uri, host string
	header            http.Header
	length            int64
	body              string
	rest              int // bytes left after the body
}

func readWritten(b []byte) (readBack, error) {
	br := bufio.NewReader(bytes.NewReader(b))
	r, err := http.ReadRequest(br)
	if err != nil {
		return readBack{}, err
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return readBack{}, err
	}
	h := r.Header.Clone()
	delete(h, "User-Agent")
	rest, _ := io.Copy(io.Discard, br)
	return readBack{r.Method, r.RequestURI, r.Host, h, r.ContentLength, string(body), int(rest)}, nil
}

// writeBoth writes req with writeControlHead, if the control transport
// takes it, and a copy with (*http.Request).Write. ok is false when
// checkRequest or checkControl refuses req.
func writeBoth(req *http.Request) (ours, theirs []byte, oursErr, theirsErr error, ok bool) {
	if _, err := checkRequest(req); err != nil {
		return nil, nil, nil, nil, false
	}
	if checkControl(req) != nil {
		return nil, nil, nil, nil, false
	}
	other := *req
	if req.GetBody != nil {
		other.Body, _ = req.GetBody()
	}
	var a, b bytes.Buffer
	w := bufio.NewWriter(&a)
	if oursErr = writeControlHead(w, req); oursErr == nil {
		oursErr = w.Flush()
	}
	theirsErr = other.Write(&b)
	return a.Bytes(), b.Bytes(), oursErr, theirsErr, true
}

// sameRead fails t unless http.ReadRequest reads the same request from
// what writeControlHead and Request.Write wrote for req, and both wrote
// it or both refused it.
func sameRead(t *testing.T, name string, req *http.Request) {
	t.Helper()
	ours, theirs, oursErr, theirsErr, ok := writeBoth(req)
	if !ok {
		t.Fatalf("%s: refused", name)
	}
	if (oursErr != nil) != (theirsErr != nil) {
		t.Fatalf("%s: writeControlHead error %v, Request.Write error %v", name, oursErr, theirsErr)
	}
	if oursErr != nil {
		return
	}
	got, gotErr := readWritten(ours)
	want, wantErr := readWritten(theirs)
	if (gotErr != nil) != (wantErr != nil) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: from %q read %+v (%v), from Request.Write's %q read %+v (%v)", name, ours, got, gotErr, theirs, want, wantErr)
	}
}

// TestControlHeadMatchesRequestWrite: for every shape of request the
// control plane sends, http.ReadRequest reads the same method,
// RequestURI, Host, header (User-Agent aside), length and body from what
// writeControlHead writes as from what Request.Write writes.
func TestControlHeadMatchesRequestWrite(t *testing.T) {
	jsonHeader := http.Header{"Content-Type": {"application/json"}}
	leader := http.Header{"Content-Type": {"application/json"}, "X-Slate-Leader-Epoch": {"3"}, "X-Slate-Leader": {"http://10.0.0.1:7000"}}
	body := []byte(`{"cluster":"west","window_ms":1000,"epoch":2,"delta":true,"stats":[]}`)
	for _, c := range []struct {
		name, method, url string
		h                 http.Header
		body              []byte
	}{
		{"report", http.MethodPost, "http://127.0.0.1:7000/v1/metrics", jsonHeader, body},
		{"register", http.MethodPost, "http://global.example:7000/v1/register", jsonHeader, body},
		{"patch push", http.MethodPost, "http://[::1]:7101/v1/patch", leader, body},
		{"lease", http.MethodPost, "http://west:7101/v1/lease", jsonHeader, body},
		{"snapshot", http.MethodGet, "http://127.0.0.1:7001/v1/snapshot", nil, nil},
		{"agent push", http.MethodPost, "http://127.0.0.1:7101/v1/metrics", jsonHeader, bytes.Repeat(body, 100)},
		{"agent poll", http.MethodGet, "http://127.0.0.1:7101/v1/rules?since=42", nil, nil},
		{"agent resync", http.MethodGet, "http://127.0.0.1:7101/v1/rules", nil, nil},
	} {
		sameRead(t, c.name, controlRequest(t, c.method, c.url, c.h, c.body))
	}
}

// FuzzControlHead: for any request the control transport takes, built
// from fuzzed parts, http.ReadRequest reads from writeControlHead's
// bytes what it reads from Request.Write's; a request whose body is
// not ContentLength long fails both writers.
func FuzzControlHead(f *testing.F) {
	f.Add("POST", "h:7000", "", "/v1/metrics", "", "Content-Type", "application/json", []byte(`{"a":1}`), uint8(0))
	f.Add("GET", "127.0.0.1:7101", "", "/v1/rules", "since=3", "", "", []byte(nil), uint8(0))
	f.Add("POST", "[::1]:7101", "", "/v1/patch", "", "X-Slate-Leader", "http://a:1", []byte("{}"), uint8(0))
	f.Add("PUT", "h", "other:80", "/a b/%zz", "x=1&y", "X", " padded ", []byte("abc"), uint8(1))
	f.Add("", "h", "", "", "", "User-Agent", "ua", []byte(nil), uint8(2))
	f.Add("DELETE", "h", "", "/", "", "content-length", "3", []byte("abc"), uint8(4))
	f.Fuzz(func(t *testing.T, method, host, hostField, path, query, key, value string, body []byte, flags uint8) {
		req := &http.Request{
			Method: method,
			URL:    &url.URL{Scheme: "http", Host: host, Path: path, RawQuery: query, ForceQuery: flags&8 != 0},
			Header: http.Header{},
			Host:   hostField,
		}
		if key != "" {
			req.Header[key] = []string{value}
		}
		if len(body) > 0 {
			req.Body, req.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
			req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
		}
		if flags&1 != 0 {
			req.ContentLength++ // a body shorter than declared
		}
		if flags&2 != 0 {
			req.Close = true
		}
		if flags&4 != 0 {
			req.ContentLength = 0 // a body of unknown length
		}
		ours, theirs, oursErr, theirsErr, ok := writeBoth(req)
		if !ok {
			return
		}
		if (oursErr != nil) != (theirsErr != nil) {
			t.Fatalf("writeControlHead error %v, Request.Write error %v", oursErr, theirsErr)
		}
		if oursErr != nil {
			return
		}
		got, gotErr := readWritten(ours)
		want, wantErr := readWritten(theirs)
		if (gotErr != nil) != (wantErr != nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("from %q read %+v (%v), from Request.Write's %q read %+v (%v)", ours, got, gotErr, theirs, want, wantErr)
		}
	})
}

// TestControlRefusesWhatItDoesNotWrite: a request of a shape the head
// writer does not cover, or one Upstream refuses, fails before a
// connection is dialled, and its body is closed.
func TestControlRefusesWhatItDoesNotWrite(t *testing.T) {
	srv := newRawServer(t, func(*http.Request) []byte { return []byte("HTTP/1.1 204 No Content\r\n\r\n") },
		func(*http.Request) bool { return false })
	for _, c := range []struct {
		name  string
		build func(*http.Request)
	}{
		{"Transfer-Encoding", func(r *http.Request) { r.TransferEncoding = []string{"chunked"} }},
		{"trailer", func(r *http.Request) { r.Trailer = http.Header{"T": {"v"}} }},
		{"Close", func(r *http.Request) { r.Close = true }},
		{"unknown length", func(r *http.Request) { r.ContentLength = 0 }},
		{"length without a body", func(r *http.Request) { r.Body, r.ContentLength = nil, 3 }},
		{"opaque URL", func(r *http.Request) { r.URL.Opaque = "//h/x" }},
		{"space in query", func(r *http.Request) { r.URL.RawQuery = "a b" }},
		{"bad Host", func(r *http.Request) { r.Host = "h\r\nX: 1" }},
		{"zone in Host", func(r *http.Request) { r.Host = "[fe80::1%25eth0]:80" }},
		{"CONNECT", func(r *http.Request) { r.Method = http.MethodConnect }},
		{"bad field value", func(r *http.Request) { r.Header.Set("X", "a\r\nInjected: 1") }},
		{"other scheme", func(r *http.Request) { r.URL.Scheme = "ftp" }},
	} {
		tr := NewControl(time.Second)
		req := controlRequest(t, http.MethodPost, srv.url()+"/v1/metrics", nil, []byte("{}"))
		closed := false
		req.Body = closeFunc{req.Body, func() { closed = true }}
		c.build(req)
		if resp, err := tr.RoundTrip(req); err == nil {
			resp.Body.Close()
			t.Errorf("%s: sent", c.name)
		}
		if req.Body != nil && !closed {
			t.Errorf("%s: body not closed", c.name)
		}
	}
	if n := srv.accepts.Load(); n != 0 {
		t.Errorf("%d connections dialled for refused requests", n)
	}
}

// closeFunc is a body that reports its Close.
type closeFunc struct {
	io.ReadCloser
	onClose func()
}

func (c closeFunc) Close() error {
	c.onClose()
	return c.ReadCloser.Close()
}

// TestControlMatchesUpstream runs TestUpstreamMatchesHTTPTransport's
// matrix, but for a request's own Connection: close (a header line
// here, as Control refuses req.Close), through Control and Upstream:
// both must see the same outcomes and open the same number of
// connections.
func TestControlMatchesUpstream(t *testing.T) {
	for _, method := range []string{http.MethodGet, http.MethodPost, http.MethodHead} {
		for _, f := range answerFramings {
			for _, closer := range []string{"none", "request", "response"} {
				for _, readN := range []int{-1, 1} {
					name := fmt.Sprintf("%s/%s/close-%s/read-%d", method, f.name, closer, readN)
					t.Run(name, func(t *testing.T) {
						answer := func(req *http.Request) []byte {
							head := f.head
							if closer == "response" {
								head += "\r\nConnection: close"
							}
							if req.Method == http.MethodHead {
								return []byte(head + "\r\n\r\n")
							}
							return []byte(head + "\r\n\r\n" + f.body)
						}
						closeAfter := func(req *http.Request) bool {
							return f.closeDelimited || closer == "response" || req.Close
						}
						run := func(rt http.RoundTripper) ([]outcome, int32) {
							srv := newRawServer(t, answer, closeAfter)
							var out []outcome
							for range 2 {
								var body []byte
								if method == http.MethodPost {
									body = []byte("ping")
								}
								h := http.Header{}
								if closer == "request" {
									h.Set("Connection", "close")
								}
								out = append(out, roundTrip(rt, controlRequest(t, method, srv.url()+"/x", h, body), readN))
							}
							return out, srv.accepts.Load()
						}
						ctl := NewControl(10 * time.Second)
						defer ctl.CloseIdleConnections()
						up := &Upstream{}
						defer up.CloseIdleConnections()
						got, gotConns := run(ctl)
						want, wantConns := run(up)
						for i := range want {
							if !got[i].equal(want[i]) {
								t.Errorf("round trip %d: Control %v, Upstream %v", i, got[i], want[i])
							}
						}
						if gotConns != wantConns {
							t.Errorf("Control opened %d connections, Upstream %d", gotConns, wantConns)
						}
					})
				}
			}
		}
	}
}

// TestControlCancelUnblocksBody: cancelling the caller's context aborts
// a Control exchange as it does an Upstream one, the deadline far off:
// the blocked body read returns the context's error, and the connection
// is not pooled.
func TestControlCancelUnblocksBody(t *testing.T) {
	stall := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "100")
		io.WriteString(w, "first")
		w.(http.Flusher).Flush()
		<-stall
	}))
	defer srv.Close()
	defer close(stall)
	for _, rt := range []interface {
		http.RoundTripper
		CloseIdleConnections()
	}{NewControl(time.Minute), &Upstream{}} {
		ctx, cancel := context.WithCancel(context.Background())
		req := controlRequest(t, http.MethodGet, srv.URL, nil, nil).WithContext(ctx)
		resp, err := rt.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 5)
		if _, err := io.ReadFull(resp.Body, buf); err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() {
			_, err := resp.Body.Read(buf)
			errc <- err
		}()
		time.Sleep(10 * time.Millisecond)
		cancel()
		select {
		case err := <-errc:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%T: read after cancel: %v, want context.Canceled", rt, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%T: read still blocked after cancel", rt)
		}
		resp.Body.Close()
		var up *Upstream
		switch rt := rt.(type) {
		case *Control:
			up = &rt.up
		case *Upstream:
			up = rt
		}
		if c := up.get(srv.Listener.Addr().String()); c != nil {
			t.Errorf("%T: a cancelled round trip's connection was pooled", rt)
		}
	}
}

// TestControlDeadline: a Control exchange whose server never answers
// fails once the bound runs out, with the connection's deadline as its
// cause, and is not retried; a pooled connection carries no deadline
// while it sits idle, so one idle past the bound still serves.
func TestControlDeadline(t *testing.T) {
	var answer atomic.Bool
	srv := newRawServer(t, func(*http.Request) []byte {
		if !answer.Load() {
			return nil
		}
		return []byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
	}, func(*http.Request) bool { return false })
	const bound = 100 * time.Millisecond
	tr := NewControl(bound)
	defer tr.CloseIdleConnections()

	answer.Store(true)
	if o := roundTrip(tr, controlRequest(t, http.MethodGet, srv.url()+"/", nil, nil), -1); o.err || o.body != "ok" {
		t.Fatalf("first round trip: %v", o)
	}
	time.Sleep(2 * bound) // idle past the bound, in the pool
	if o := roundTrip(tr, controlRequest(t, http.MethodGet, srv.url()+"/", nil, nil), -1); o.err || o.body != "ok" {
		t.Fatalf("round trip on a connection idle past the bound: %v", o)
	}
	if n := srv.accepts.Load(); n != 1 {
		t.Fatalf("%d connections for two round trips, want 1", n)
	}

	answer.Store(false)
	start := time.Now()
	_, err := tr.RoundTrip(controlRequest(t, http.MethodGet, srv.url()+"/", nil, nil))
	if took := time.Since(start); !errors.Is(err, os.ErrDeadlineExceeded) || took > 5*bound {
		t.Fatalf("unanswered round trip: %v after %v, want the deadline within a few of %v", err, took, bound)
	}
	var te interface{ Timeout() bool }
	if !errors.As(err, &te) || !te.Timeout() {
		t.Errorf("unanswered round trip's error %v does not report Timeout()", err)
	}
	if n := srv.accepts.Load(); n != 1 {
		t.Errorf("a timed-out GET was retried: %d connections, want 1", n)
	}
}

// TestControlRoundTripAllocs pins the heap objects of one GET on a
// pooled connection through Control, TestUpstreamRoundTripAllocs's round
// trip with the request built once; Upstream's for the same request is
// logged. What they differ by is net/http's request writer.
func TestControlRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random, so counts vary")
	}
	req := controlRequest(t, http.MethodGet, cannedServer(t)+"/", nil, nil)
	run := func(rt http.RoundTripper) float64 {
		return testing.AllocsPerRun(200, func() {
			resp, err := rt.RoundTrip(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		})
	}
	ctl, up := NewControl(time.Minute), &Upstream{}
	defer ctl.CloseIdleConnections()
	defer up.CloseIdleConnections()
	got, upGot := run(ctl), run(up)
	t.Logf("heap objects per round trip: Control %.0f, Upstream %.0f", got, upGot)
	if n := int(got); n != 10 {
		t.Errorf("Control round trip: %d heap objects, want 10", n)
	}
}
