package dataplane

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// Upstream is held to http.Transport, the transport it replaced: for
// the same server bytes both must agree on whether a round trip fails,
// and on the status, header and body of what it returns.

// rawServer is a loopback server that answers with bytes of the test's
// choosing. For each request it reads (http.ReadRequest, body drained)
// it writes answer(req); it closes the connection after an answer when
// closeAfter(req) says so, and counts the connections it accepts.
type rawServer struct {
	ln      net.Listener
	accepts atomic.Int32
	wg      sync.WaitGroup
}

func newRawServer(t testing.TB, answer func(*http.Request) []byte, closeAfter func(*http.Request) bool) *rawServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &rawServer{ln: ln}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.accepts.Add(1)
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					req, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					io.Copy(io.Discard, req.Body)
					if _, err := conn.Write(answer(req)); err != nil || closeAfter(req) {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		s.wg.Wait()
	})
	return s
}

func (s *rawServer) url() string { return "http://" + s.ln.Addr().String() }

// outcome is what a caller sees of one round trip.
type outcome struct {
	err     bool
	status  int
	header  http.Header
	body    string
	readErr bool
}

func (o outcome) String() string {
	if o.err {
		return "error"
	}
	return fmt.Sprintf("%d %v body %q (read error %v)", o.status, o.header, o.body, o.readErr)
}

func (o outcome) equal(p outcome) bool {
	if o.err || p.err {
		return o.err == p.err
	}
	return o.status == p.status && fmt.Sprint(o.header) == fmt.Sprint(p.header) &&
		o.body == p.body && o.readErr == p.readErr
}

// roundTrip sends req through rt and reads the body whole, or closes it
// after at most readN bytes when readN >= 0.
func roundTrip(rt http.RoundTripper, req *http.Request, readN int) outcome {
	resp, err := rt.RoundTrip(req)
	if err != nil {
		return outcome{err: true}
	}
	defer resp.Body.Close()
	o := outcome{status: resp.StatusCode, header: resp.Header.Clone()}
	delete(o.header, "Date")
	var r io.Reader = resp.Body
	if readN >= 0 {
		r = io.LimitReader(resp.Body, int64(readN))
	}
	b, err := io.ReadAll(r)
	o.body, o.readErr = string(b), err != nil
	return o
}

// oracle is the transport Upstream replaced, minus the gzip request it
// added on its own.
func oracle() *http.Transport { return &http.Transport{DisableCompression: true} }

// answerFramings are the ways a server may frame an answer that the
// transports are held to each other over.
var answerFramings = []struct {
	name string
	head string // status line and fields, without the blank line
	body string
	// closeDelimited answers end when the server closes.
	closeDelimited bool
}{
	{"content-length", "HTTP/1.1 200 OK\r\nContent-Length: 5", "hello", false},
	{"chunked", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked", "2\r\nhe\r\n3\r\nllo\r\n0\r\nX-Trailer: t\r\n\r\n", false},
	{"close-delimited", "HTTP/1.1 200 OK", "hello", true},
	{"204", "HTTP/1.1 204 No Content", "", false},
	{"304", "HTTP/1.1 304 Not Modified\r\nEtag: \"x\"", "", false},
	{"empty", "HTTP/1.1 200 OK\r\nContent-Length: 0", "", false},
	{"1xx-then-200", "HTTP/1.1 103 Early Hints\r\nLink: </a>\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2", "ok", false},
}

// TestUpstreamMatchesHTTPTransport runs the matrix of methods × answer
// framings × who says Connection: close × whether the caller reads the
// body whole. Each case makes two round trips on one transport, so a
// pooled connection is reused where it should be; both transports must
// see the same outcomes and open the same number of connections.
func TestUpstreamMatchesHTTPTransport(t *testing.T) {
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
								var body io.Reader
								if method == http.MethodPost {
									body = strings.NewReader("ping")
								}
								req, err := http.NewRequest(method, srv.url()+"/x", body)
								if err != nil {
									t.Fatal(err)
								}
								req.Close = closer == "request"
								out = append(out, roundTrip(rt, req, readN))
							}
							return out, srv.accepts.Load()
						}
						up := &Upstream{}
						defer up.CloseIdleConnections()
						ref := oracle()
						defer ref.CloseIdleConnections()
						got, gotConns := run(up)
						want, wantConns := run(ref)
						for i := range want {
							if !got[i].equal(want[i]) {
								t.Errorf("round trip %d: Upstream %v, http.Transport %v", i, got[i], want[i])
							}
						}
						if gotConns != wantConns {
							t.Errorf("Upstream opened %d connections, http.Transport %d", gotConns, wantConns)
						}
					})
				}
			}
		}
	}
}

// FuzzUpstreamResponse: a server replays fuzzed bytes as its answer to
// a GET, then closes; Upstream and http.Transport must agree on the
// outcome.
func FuzzUpstreamResponse(f *testing.F) {
	for _, s := range []string{
		"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\n\r\nclose-delimited",
		"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort",
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 204 No Content\r\n\r\n",
		"HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: x\r\n\r\nraw bytes",
		"HTTP/1.0 302 Found\r\nLocation: /y\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nab",
		"HTTP/1.1 099 Low\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 2000 OK\r\n\r\n",
		"garbage",
		"",
	} {
		f.Add([]byte(s))
	}
	// One server for the whole run: a listener per execution runs the
	// machine out of ephemeral ports within a minute of fuzzing.
	var answer atomic.Pointer[[]byte]
	srv := newRawServer(f, func(*http.Request) []byte { return *answer.Load() },
		func(*http.Request) bool { return true })
	f.Fuzz(func(t *testing.T, raw []byte) {
		answer.Store(&raw)
		var got, want outcome
		for _, c := range []struct {
			rt  http.RoundTripper
			out *outcome
		}{{&Upstream{}, &got}, {oracle(), &want}} {
			req, err := http.NewRequest(http.MethodGet, srv.url()+"/", nil)
			if err != nil {
				t.Fatal(err)
			}
			*c.out = roundTrip(c.rt, req, -1)
			c.rt.(interface{ CloseIdleConnections() }).CloseIdleConnections()
		}
		if !got.equal(want) {
			t.Fatalf("answer %q: Upstream %v, http.Transport %v", raw, got, want)
		}
	})
}

// connWatch is a server that tracks its connections by ConnState.
type connWatch struct {
	*httptest.Server
	mu    sync.Mutex
	conns map[net.Conn]http.ConnState
}

func newConnWatch(t *testing.T, h http.Handler) *connWatch {
	t.Helper()
	w := &connWatch{conns: map[net.Conn]http.ConnState{}}
	w.Server = httptest.NewUnstartedServer(h)
	w.Config.ConnState = func(c net.Conn, s http.ConnState) {
		w.mu.Lock()
		w.conns[c] = s
		w.mu.Unlock()
	}
	w.Start()
	t.Cleanup(w.Close)
	return w
}

// count returns how many connections are in state s.
func (w *connWatch) count(s http.ConnState) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, st := range w.conns {
		if st == s {
			n++
		}
	}
	return n
}

// seen returns how many connections the server has accepted.
func (w *connWatch) seen() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.conns)
}

// waitFor polls until cond holds, failing after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func post(t *testing.T, rt http.RoundTripper, url string) (string, error) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader("ping"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := rt.RoundTrip(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// TestUpstreamSkipsClosedIdleConn: the server closes a pooled
// connection while it sits idle. Nothing reads an idle connection, so
// only the checkout probe can see that; without it the next POST is
// written into a closed connection and fails.
func TestUpstreamSkipsClosedIdleConn(t *testing.T) {
	w := newConnWatch(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, "pong")
	}))
	up := &Upstream{}
	defer up.CloseIdleConnections()
	if _, err := post(t, up, w.URL); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "an idle server connection", func() bool { return w.count(http.StateIdle) == 1 })
	w.mu.Lock()
	for c := range w.conns {
		c.Close()
	}
	w.mu.Unlock()
	waitFor(t, "the server to close it", func() bool { return w.count(http.StateClosed) == 1 })
	body, err := post(t, up, w.URL)
	if err != nil || body != "pong" {
		t.Fatalf("POST after the server closed the idle connection: %q, %v", body, err)
	}
	if n := w.seen(); n != 2 {
		t.Errorf("server saw %d connections, want 2", n)
	}
}

// TestUpstreamCloseIdleConnections: every pooled connection closes.
func TestUpstreamCloseIdleConnections(t *testing.T) {
	const conns = 3
	var arrived sync.WaitGroup
	arrived.Add(conns)
	release := make(chan struct{})
	w := newConnWatch(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived.Done()
		<-release // hold every request, so each gets a connection of its own
		io.WriteString(w, "pong")
	}))
	up := &Upstream{}
	var done sync.WaitGroup
	for range conns {
		done.Add(1)
		go func() {
			defer done.Done()
			if _, err := post(t, up, w.URL); err != nil {
				t.Error(err)
			}
		}()
	}
	arrived.Wait()
	close(release)
	done.Wait()
	waitFor(t, "idle server connections", func() bool { return w.count(http.StateIdle) == conns })
	up.CloseIdleConnections()
	waitFor(t, "every connection to close", func() bool { return w.count(http.StateClosed) == conns })
}

// TestUpstreamCancelUnblocksBody: cancelling the request's context while
// the caller waits on a body the server never finishes unblocks the
// read with the context's error, and the connection is not pooled.
func TestUpstreamCancelUnblocksBody(t *testing.T) {
	stall := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "100")
		io.WriteString(w, "first")
		w.(http.Flusher).Flush()
		<-stall
	}))
	defer srv.Close()
	defer close(stall)
	up := &Upstream{}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := up.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
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
			t.Errorf("read after cancel: %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read still blocked after cancel")
	}
	if c := up.get(srv.Listener.Addr().String()); c != nil {
		t.Error("a cancelled round trip's connection was pooled")
	}
}

// TestUpstreamLateCloseSparesNextRequest: a body read to EOF has handed
// its connection back, so its Close — deferred, as the sidecar's is —
// must not act on the connection once another round trip holds it.
func TestUpstreamLateCloseSparesNextRequest(t *testing.T) {
	closed := make(chan struct{})
	w := newConnWatch(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/second" {
			// The body is still to come when the first body's Close runs.
			w.Header().Set("Content-Length", "4")
			w.(http.Flusher).Flush()
			<-closed
		}
		io.WriteString(w, "pong")
	}))
	up := &Upstream{}
	defer up.CloseIdleConnections()
	get := func(path string) *http.Response {
		req, err := http.NewRequest(http.MethodGet, w.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := up.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	first := get("/first")
	if b, err := io.ReadAll(first.Body); err != nil || string(b) != "pong" {
		t.Fatalf("first body %q, %v", b, err)
	}
	second := get("/second") // on the connection the first body handed back
	first.Body.Close()
	close(closed)
	b, err := io.ReadAll(second.Body)
	second.Body.Close()
	if err != nil || string(b) != "pong" {
		t.Fatalf("second body after the first's late Close: %q, %v", b, err)
	}
	if n := w.seen(); n != 1 {
		t.Errorf("server saw %d connections, want 1", n)
	}
}

// TestUpstreamConcurrentRoundTrips shares one Upstream among goroutines
// that read bodies whole, close them early and cancel them mid-body, so
// connections pass between goroutines through the pool, and a cancelled
// one is closed from context.AfterFunc's goroutine. Every body read
// whole must come back intact; run it under -race.
func TestUpstreamConcurrentRoundTrips(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		w.Write(bytes.Repeat(b, 64))
	}))
	defer srv.Close()
	up := &Upstream{}
	defer up.CloseIdleConnections()
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 40 {
				ctx, cancel := context.WithCancel(context.Background())
				msg := fmt.Sprintf("g%d-i%d;", g, i)
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL, strings.NewReader(msg))
				if err != nil {
					t.Error(err)
					cancel()
					return
				}
				resp, err := up.RoundTrip(req)
				if err != nil {
					t.Errorf("round trip %s: %v", msg, err)
					cancel()
					return
				}
				switch i % 3 {
				case 0:
					b, err := io.ReadAll(resp.Body)
					if want := strings.Repeat(msg, 64); err != nil || string(b) != want {
						t.Errorf("body of %s: %d bytes, %v; want %d", msg, len(b), err, len(want))
					}
				case 1:
					resp.Body.Read(make([]byte, 1))
				case 2:
					cancel()
					io.Copy(io.Discard, resp.Body)
				}
				resp.Body.Close()
				cancel()
			}
		}()
	}
	wg.Wait()
}

// failWriteConn is a connection whose every write fails before a byte
// is written, as a socket the server has just closed does when the
// close lands between checkout and write.
type failWriteConn struct{ net.Conn }

func (failWriteConn) Write([]byte) (int, error) { return 0, syscall.EPIPE }

// quietRaw is a RawConn whose probe sees an open, quiet socket.
type quietRaw struct{ syscall.RawConn }

func (quietRaw) Read(func(uintptr) bool) error { return nil }

// TestUpstreamRetriesUnwrittenRequest: a reused connection that fails
// before any byte is written is retried once on a fresh connection when
// the body can be replayed, and not retried when it cannot.
func TestUpstreamRetriesUnwrittenRequest(t *testing.T) {
	w := newConnWatch(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		w.Write(b)
	}))
	addr := w.Listener.Addr().String()
	up := &Upstream{}
	defer up.CloseIdleConnections()
	plant := func() {
		c, err := up.dial(context.Background(), addr)
		if err != nil {
			t.Fatal(err)
		}
		c.conn = failWriteConn{c.conn}
		c.raw, c.peekErr = quietRaw{}, syscall.EAGAIN
		up.put(c)
	}
	send := func(body io.Reader) (string, error) {
		req, err := http.NewRequest(http.MethodPost, w.URL, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := up.RoundTrip(req)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return string(b), err
	}

	plant()
	if got, err := send(strings.NewReader("replayable")); err != nil || got != "replayable" {
		t.Errorf("replayable body: %q, %v; want a retry on a fresh connection", got, err)
	}
	plant()
	if _, err := send(io.MultiReader(strings.NewReader("one-shot"))); !errors.Is(err, syscall.EPIPE) {
		t.Errorf("one-shot body: %v, want the write error unretried", err)
	}
}

// TestUpstreamRetriesReplayableOnServerClose: the server answers a
// connection's first request, then reads the second and closes without
// a byte of answer, as one does whose keep-alive timeout fires while a
// request is on its way. A replayable request — an idempotent method,
// or an idempotency key, with a body GetBody can make again — is then
// retried on a fresh connection and any other fails, as with
// http.Transport. The server holds the connection open until the
// request is in, so the checkout probe always finds it alive.
func TestUpstreamRetriesReplayableOnServerClose(t *testing.T) {
	for _, c := range []struct {
		name, method, key string // key is an idempotency header to set
		oneShot           bool   // the body cannot be replayed
		retried           bool
	}{
		{"GET", http.MethodGet, "", false, true},
		{"HEAD", http.MethodHead, "", false, true},
		{"OPTIONS", http.MethodOptions, "", false, true},
		{"POST", http.MethodPost, "", false, false},
		{"POST/Idempotency-Key", http.MethodPost, "Idempotency-Key", false, true},
		{"POST/X-Idempotency-Key", http.MethodPost, "X-Idempotency-Key", false, true},
		{"POST/Idempotency-Key/one-shot-body", http.MethodPost, "Idempotency-Key", true, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(rt http.RoundTripper) (outcome, int32) {
				// The round trips come one at a time, so every
				// even-numbered request the server reads is a
				// connection's second.
				var n atomic.Int32
				srv := newRawServer(t, func(req *http.Request) []byte {
					if n.Add(1)%2 == 0 {
						return nil
					}
					if req.Method == http.MethodHead {
						return []byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n")
					}
					return []byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
				}, func(*http.Request) bool { return n.Load()%2 == 0 })
				req, err := http.NewRequest(http.MethodGet, srv.url(), nil)
				if err != nil {
					t.Fatal(err)
				}
				if first := roundTrip(rt, req, -1); first.err || first.body != "ok" {
					t.Fatalf("first round trip: %v", first)
				}
				var body io.Reader
				if c.method == http.MethodPost {
					body = strings.NewReader("ping")
					if c.oneShot {
						body = io.MultiReader(body)
					}
				}
				if req, err = http.NewRequest(c.method, srv.url(), body); err != nil {
					t.Fatal(err)
				}
				if c.key != "" {
					req.Header.Set(c.key, "k1")
				}
				return roundTrip(rt, req, -1), srv.accepts.Load()
			}
			up := &Upstream{}
			defer up.CloseIdleConnections()
			ref := oracle()
			defer ref.CloseIdleConnections()
			got, gotConns := run(up)
			want, wantConns := run(ref)
			if !got.equal(want) || gotConns != wantConns {
				t.Errorf("Upstream %v over %d connections, http.Transport %v over %d", got, gotConns, want, wantConns)
			}
			if wantRetried := !want.err && wantConns == 2; wantRetried != c.retried || want.err == c.retried {
				t.Errorf("http.Transport %v over %d connections; want retried %v", want, wantConns, c.retried)
			}
		})
	}
}

// TestUpstreamRefusesWhatTransportRefuses: the requests http.Transport
// refuses before dialling, Upstream refuses too.
func TestUpstreamRefusesWhatTransportRefuses(t *testing.T) {
	srv := newRawServer(t, func(*http.Request) []byte { return []byte("HTTP/1.1 204 No Content\r\n\r\n") },
		func(*http.Request) bool { return false })
	for _, c := range []struct {
		name  string
		build func(*http.Request)
	}{
		{"nil URL", func(r *http.Request) { r.URL = nil }},
		{"nil header", func(r *http.Request) { r.Header = nil }},
		{"other scheme", func(r *http.Request) { r.URL.Scheme = "ftp" }},
		{"no host", func(r *http.Request) { r.URL.Host = "" }},
		{"bad method", func(r *http.Request) { r.Method = "GET X" }},
		{"bad field name", func(r *http.Request) { r.Header["Bad Name"] = []string{"v"} }},
		{"bad field value", func(r *http.Request) { r.Header.Set("X", "a\r\nInjected: 1") }},
		{"bad trailer", func(r *http.Request) { r.Trailer = http.Header{"T": {"\x00"}} }},
	} {
		for _, rt := range []http.RoundTripper{&Upstream{}, oracle()} {
			req, err := http.NewRequest(http.MethodGet, srv.url(), nil)
			if err != nil {
				t.Fatal(err)
			}
			c.build(req)
			if resp, err := rt.RoundTrip(req); err == nil {
				resp.Body.Close()
				t.Errorf("%s: %T sent it", c.name, rt)
			}
		}
	}
	if n := srv.accepts.Load(); n != 0 {
		t.Errorf("%d connections dialled for refused requests", n)
	}
}

// TestUpstreamBoundsResponseHead: a head longer than 10 MiB fails the
// round trip, as it does through http.Transport.
func TestUpstreamBoundsResponseHead(t *testing.T) {
	head := []byte("HTTP/1.1 200 OK\r\nX-Long: " + strings.Repeat("a", maxHeadBytes+1) + "\r\n\r\n")
	srv := newRawServer(t, func(*http.Request) []byte { return head }, func(*http.Request) bool { return true })
	for _, rt := range []http.RoundTripper{&Upstream{}, oracle()} {
		req, err := http.NewRequest(http.MethodGet, srv.url(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := rt.RoundTrip(req); err == nil {
			resp.Body.Close()
			t.Errorf("%T read a %d-byte head", rt, len(head))
		}
	}
}

// cannedServer answers each request head it reads with the same small
// response. It parses nothing and reads into one fixed buffer, so it
// allocates nothing per request: a round trip's allocations are all the
// client's. Requests must carry no body.
func cannedServer(t testing.TB) string {
	t.Helper()
	resp := []byte("HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 5\r\n\r\nhello")
	end := []byte("\r\n\r\n")
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
				buf := make([]byte, 4<<10)
				n := 0
				for {
					m, err := conn.Read(buf[n:])
					if err != nil {
						return
					}
					n += m
					for {
						i := bytes.Index(buf[:n], end)
						if i < 0 {
							break
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

// TestUpstreamRoundTripAllocs pins the heap objects of one GET round
// trip on a pooled connection, body read and closed, request built in
// the loop (2 of the objects). http.Transport, without its gzip request,
// makes 37 for the same round trip; the difference is its connection
// machinery — the read and write loops' channel hand-offs, the
// per-call cancel context and the request-canceler closure.
func TestUpstreamRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random, so counts vary")
	}
	url := cannedServer(t)
	tmpl, err := http.NewRequest(http.MethodGet, url+"/", nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func(rt http.RoundTripper) float64 {
		return testing.AllocsPerRun(200, func() {
			req := &http.Request{Method: tmpl.Method, URL: tmpl.URL, Header: http.Header{}, Host: tmpl.Host}
			resp, err := rt.RoundTrip(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		})
	}
	up := &Upstream{}
	defer up.CloseIdleConnections()
	ref := oracle()
	defer ref.CloseIdleConnections()
	got, refGot := run(up), run(ref)
	t.Logf("heap objects per round trip: Upstream %.0f, http.Transport %.0f", got, refGot)
	if n := int(got); n != 17 {
		t.Errorf("Upstream round trip: %d heap objects, want 17", n)
	}
}

// BenchmarkUpstreamRoundTrip times the same round trip through both
// transports.
func BenchmarkUpstreamRoundTrip(b *testing.B) {
	url := cannedServer(b)
	up, ref := &Upstream{}, oracle()
	// Each leg leaves a keep-alive connection idle, and the server's
	// cleanup waits for every connection to end: close them first
	// (cleanups run last registered, first run).
	b.Cleanup(up.CloseIdleConnections)
	b.Cleanup(ref.CloseIdleConnections)
	for _, c := range []struct {
		name string
		rt   http.RoundTripper
	}{{"upstream", up}, {"http.Transport", ref}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				req, _ := http.NewRequest(http.MethodGet, url+"/", nil)
				resp, err := c.rt.RoundTrip(req)
				if err != nil {
					b.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		})
	}
}

// TestUpstreamRoundTripBenchmarkReturns runs BenchmarkUpstreamRoundTrip
// once per leg, as a -benchtime=1x run of every benchmark does, under a
// deadline: a leg that holds a keep-alive connection past the canned
// server's cleanup hangs the benchmark there.
func TestUpstreamRoundTripBenchmarkReturns(t *testing.T) {
	benchtime := flag.Lookup("test.benchtime").Value
	was := benchtime.String()
	if err := benchtime.Set("1x"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { benchtime.Set(was) })
	done := make(chan testing.BenchmarkResult, 1)
	go func() { done <- testing.Benchmark(BenchmarkUpstreamRoundTrip) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("BenchmarkUpstreamRoundTrip has not returned after 30 s")
	}
}
