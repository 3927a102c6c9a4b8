package dataplane

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Upstream is the http.RoundTripper a sidecar forwards through, and the
// one an emulated application calls its sidecar through. It speaks
// HTTP/1.1 with net/http's own codec — (*http.Request).Write and
// http.ReadResponse — so the bytes on the wire are net/http's. What it
// drops is http.Transport's connection machinery: there is no read or
// write goroutine per connection, no channel hand-off, no per-call
// cancel context. A round trip writes its request and reads its answer
// on the caller's goroutine, over a keep-alive connection taken from a
// per-host LIFO pool, and the answer's body hands the connection back
// when it is read to EOF.
//
// The rules, each as http.Transport has them:
//
//   - It refuses a nil URL or header, a scheme other than http, an empty
//     host, an invalid method, and an invalid header field name or value.
//   - It skips 1xx answers other than 101, and never pools a 101 (or any
//     status below 200).
//   - An answer without a body (HEAD, 204, 304, Content-Length: 0) hands
//     its connection back at once; one with a body, at EOF. Either way
//     not when the request or the answer said Connection: close.
//   - Closing a body before EOF closes its connection; nothing drains it.
//   - Cancelling the request's context closes the connection, which
//     unblocks a write or read in progress. A connection whose context
//     was cancelled is never pooled.
//   - A round trip on a reused connection that failed before a byte of
//     its answer arrived is retried once on a fresh dial, by net/http's
//     shouldRetryRequest rule: when no byte of the request reached the
//     socket, if the body can be replayed (there is none, or GetBody
//     makes another); when some did, only if the request is also
//     idempotent — GET, HEAD, OPTIONS or TRACE, or one that carries
//     Idempotency-Key or X-Idempotency-Key. Such a failure is a server
//     closing an idle connection as the request went out. Nothing else
//     is retried.
//
// Two differences: no gzip (it sends no Accept-Encoding of its own, so a
// sidecar forwards what its client asked for and relays what the app
// answered), and a streamed request body is not flushed header-first:
// the head and a small body leave in one write.
//
// With no read loop, nothing watches an idle connection, so one the
// server has closed would fail the next request on it. Checkout probes
// it first (upConn.alive): on unix one non-blocking MSG_PEEK recv; on
// other systems every idle connection counts as dead, so they dial per
// call.
//
// The zero value is ready to use. Safe for concurrent use. A response
// body's Close must not run concurrently with its Read; cancel the
// request's context to abort a blocked Read. Control RPCs ride the
// same pool through Control, which differs in how it writes a request
// and in a deadline on each exchange.
type Upstream struct {
	dialer net.Dialer
	// control writes requests with writeControlHead, refusing what
	// checkControl refuses, instead of with (*http.Request).Write.
	control bool
	// timeout, when set, is each exchange's bound: a connection holds
	// the deadline from its checkout until it goes back to the pool.
	timeout time.Duration

	mu    sync.Mutex
	hosts map[string]*idleConns // dial address -> its idle connections
}

// idleConns is one host's idle connections, the most recently used
// last. Its slice is guarded by the Upstream's mu.
type idleConns struct{ conns []*upConn }

const (
	// maxIdlePerHost caps a host's idle connections.
	maxIdlePerHost = 64
	// maxHeadBytes bounds what a response's head may read, 1xx answers
	// included: http.Transport's default MaxResponseHeaderBytes.
	maxHeadBytes = 10 << 20
	// connBufSize sizes each connection's read and write buffers.
	connBufSize = 4 << 10
)

// upConn is one pooled connection. bw writes and br reads through the
// upConn itself, which counts the bytes a round trip wrote and bounds
// what a response head reads.
type upConn struct {
	conn  net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	raw   syscall.RawConn    // nil if conn has no descriptor to probe
	peek  func(uintptr) bool // c.peekFD, built once: the probe passes it without a closure
	abort func()             // c.close, built once for context.AfterFunc
	idle  *idleConns         // where put returns it

	wrote     int64 // bytes this round trip wrote to conn
	got       int64 // bytes this round trip read from conn
	readLimit int64 // head bytes left to read

	// The probe's result, written by peekFD.
	peekErr error
	peekBuf [1]byte
}

// wireWriter is what Request.Write writes into. It is an io.ByteWriter,
// so Request.Write adds no bufio.Writer of its own, and its ReadFrom is
// the buffer's, so copying the body allocates no buffer either. But it
// is not a *bufio.Writer: Request.Write flushes one of those after the
// head whenever the body is not a known in-memory reader, and a sidecar
// always forwards its inbound body, so the head and the body would
// leave in two writes. The round trip flushes once, at the end.
type wireWriter struct{ *bufio.Writer }

var errReadOnClosedBody = errors.New("http: read on closed response body")

// RoundTrip implements http.RoundTripper.
func (t *Upstream) RoundTrip(req *http.Request) (*http.Response, error) {
	addr, err := checkRequest(req)
	if err == nil && t.control {
		err = checkControl(req)
	}
	if err != nil {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, err
	}
	ctx := req.Context()
	if c := t.get(addr); c != nil {
		resp, err := t.exchange(ctx, c, req)
		if err == nil || ctx.Err() != nil || c.got > 0 || c.wrote > 0 && !idempotent(req) ||
			errors.Is(err, os.ErrDeadlineExceeded) {
			return resp, err
		}
		// The server closed the reused connection before it answered:
		// retry once on a fresh one, if the body can be replayed. An
		// exchange that ran out its deadline is not retried: the bound
		// is the round trip's.
		if req.Body != nil && req.Body != http.NoBody {
			if req.GetBody == nil {
				return nil, err
			}
			body, berr := req.GetBody()
			if berr != nil {
				return nil, err
			}
			r := *req
			r.Body = body
			req = &r
		}
	}
	c, err := t.dial(ctx, addr)
	if err != nil {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, err
	}
	return t.exchange(ctx, c, req)
}

// exchange writes req on c and reads the head of its answer. On an
// error c is closed; otherwise the returned body owns it.
func (t *Upstream) exchange(ctx context.Context, c *upConn, req *http.Request) (*http.Response, error) {
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, c.abort)
	}
	c.wrote, c.got = 0, 0
	var err error
	if t.control {
		err = writeControlHead(c.bw, req)
	} else {
		err = req.Write(wireWriter{c.bw})
	}
	if err == nil {
		err = c.bw.Flush()
	}
	var resp *http.Response
	if err == nil {
		resp, err = c.readHead(req)
	}
	if err != nil {
		if stop != nil {
			stop()
		}
		c.close()
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		}
		return nil, err
	}

	keep := resp.StatusCode >= 200 && !resp.Close && !req.Close && !hasToken(req.Header["Connection"], "close")
	switch {
	case resp.StatusCode == http.StatusSwitchingProtocols:
		if stop != nil {
			stop()
		}
		if isProtocolSwitch(resp.Header) {
			// The connection is the caller's now, as http.Transport
			// hands it over.
			resp.Body = &switchedBody{c}
		} else {
			c.close()
		}
	case resp.Body == http.NoBody:
		t.release(c, stop, keep)
	default:
		resp.Body = &upBody{t: t, c: c, body: resp.Body, stop: stop, ctx: ctx, keep: keep}
	}
	return resp, nil
}

// readHead reads a response head, skipping 1xx answers other than 101.
func (c *upConn) readHead(req *http.Request) (*http.Response, error) {
	c.readLimit = maxHeadBytes
	for {
		resp, err := http.ReadResponse(c.br, req)
		if err != nil {
			return nil, err
		}
		if code := resp.StatusCode; code < 100 || code > 199 || code == http.StatusSwitchingProtocols {
			c.readLimit = math.MaxInt64
			return resp, nil
		}
	}
}

// release ends a round trip whose response is read: c goes back to the
// pool if keep holds and the context's AfterFunc never ran.
func (t *Upstream) release(c *upConn, stop func() bool, keep bool) {
	if stop != nil && !stop() {
		keep = false
	}
	if keep {
		t.put(c)
	} else {
		c.close()
	}
}

// get checks out an idle connection to addr that the probe finds
// alive, and arms its deadline, closing the dead ones it meets; nil if
// there is none.
//
//slate:hot
func (t *Upstream) get(addr string) *upConn {
	for {
		t.mu.Lock()
		l := t.hosts[addr]
		if l == nil || len(l.conns) == 0 {
			t.mu.Unlock()
			return nil
		}
		n := len(l.conns) - 1
		c := l.conns[n]
		l.conns[n] = nil
		l.conns = l.conns[:n]
		t.mu.Unlock()
		if c.alive() && t.arm(c) == nil {
			return c
		}
		c.close()
	}
}

// arm sets c's deadline to t.timeout from now, if t has a bound.
//
//slate:hot
func (t *Upstream) arm(c *upConn) error {
	if t.timeout == 0 {
		return nil
	}
	return c.conn.SetDeadline(time.Now().Add(t.timeout))
}

// put returns c to its host's idle list, its deadline cleared, or
// closes it if the list is full.
//
//slate:hot
func (t *Upstream) put(c *upConn) {
	if t.timeout != 0 && c.conn.SetDeadline(time.Time{}) != nil {
		c.close()
		return
	}
	t.mu.Lock()
	if l := c.idle; len(l.conns) < maxIdlePerHost {
		l.conns = append(l.conns, c)
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	c.close()
}

// dial opens a new connection to addr.
func (t *Upstream) dial(ctx context.Context, addr string) (*upConn, error) {
	conn, err := t.dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &upConn{conn: conn}
	c.br = bufio.NewReaderSize(c, connBufSize)
	c.bw = bufio.NewWriterSize(c, connBufSize)
	if sc, ok := conn.(syscall.Conn); ok {
		c.raw, _ = sc.SyscallConn()
	}
	c.peek = c.peekFD
	c.abort = c.close
	if err := t.arm(c); err != nil {
		c.close()
		return nil, err
	}
	t.mu.Lock()
	l := t.hosts[addr]
	if l == nil {
		if t.hosts == nil {
			t.hosts = map[string]*idleConns{}
		}
		l = &idleConns{}
		t.hosts[addr] = l
	}
	t.mu.Unlock()
	c.idle = l
	return c, nil
}

// CloseIdleConnections closes every pooled connection. Connections in
// use are not touched; they close or join the pool when their round
// trips end. The method name is http.Transport's.
func (t *Upstream) CloseIdleConnections() {
	var idle []*upConn
	t.mu.Lock()
	for _, l := range t.hosts {
		idle = append(idle, l.conns...)
		clear(l.conns)
		l.conns = l.conns[:0]
	}
	t.mu.Unlock()
	for _, c := range idle {
		c.close()
	}
}

func (c *upConn) close() { c.conn.Close() }

// Write is bw's sink: it counts what reached the socket.
func (c *upConn) Write(p []byte) (int, error) {
	n, err := c.conn.Write(p)
	c.wrote += int64(n)
	return n, err
}

// Read is br's source. While a head is read it stops at the limit, as
// http.Transport's connection reader does.
func (c *upConn) Read(p []byte) (int, error) {
	if c.readLimit <= 0 {
		return 0, errHeadLimit
	}
	if int64(len(p)) > c.readLimit {
		p = p[:c.readLimit]
	}
	n, err := c.conn.Read(p)
	c.readLimit -= int64(n)
	c.got += int64(n)
	return n, err
}

var errHeadLimit = errors.New("dataplane: response head exceeded 10 MiB")

// upBody is a response body: one per round trip, so a body that has
// handed its connection back can never act on it again, whoever holds
// the connection next.
type upBody struct {
	t    *Upstream
	c    *upConn       // nil once the connection is handed back or closed
	body io.ReadCloser // http.ReadResponse's body over c.br
	stop func() bool   // the context's AfterFunc; nil without one
	ctx  context.Context
	keep bool
	err  error // what Read returns once c is nil
}

func (b *upBody) Read(p []byte) (int, error) {
	c := b.c
	if c == nil {
		return 0, b.err
	}
	n, err := b.body.Read(p)
	switch {
	case err == nil:
		return n, nil
	case err == io.EOF:
		b.c, b.err = nil, io.EOF
		b.t.release(c, b.stop, b.keep)
	default:
		b.c = nil
		b.t.release(c, b.stop, false)
		if cerr := b.ctx.Err(); cerr != nil {
			err = cerr
		}
		b.err = err
	}
	return n, err
}

// Close closes the connection if the body was not read to EOF: the
// rest of it is not drained.
func (b *upBody) Close() error {
	if c := b.c; c != nil {
		b.c = nil
		b.t.release(c, b.stop, false)
	}
	b.err = errReadOnClosedBody
	return nil
}

// switchedBody is a 101 answer's body: the connection itself, read
// through what br already holds, as http.Transport returns it.
type switchedBody struct{ c *upConn }

func (b *switchedBody) Read(p []byte) (int, error)  { return b.c.br.Read(p) }
func (b *switchedBody) Write(p []byte) (int, error) { return b.c.conn.Write(p) }
func (b *switchedBody) Close() error                { return b.c.conn.Close() }

// idempotent reports whether a request may be sent again after the
// server took some of it, by its method or an idempotency key, as
// (*http.Request).isReplayable has it; whether its body can be replayed
// is the caller's to check.
func idempotent(req *http.Request) bool {
	switch req.Method {
	case "", http.MethodGet, http.MethodHead, http.MethodOptions, http.MethodTrace:
		return true
	}
	_, key := req.Header["Idempotency-Key"]
	_, xkey := req.Header["X-Idempotency-Key"]
	return key || xkey
}

// checkRequest refuses what http.Transport refuses, and returns the
// address to dial.
func checkRequest(req *http.Request) (string, error) {
	u := req.URL
	switch {
	case u == nil:
		return "", errors.New("http: nil Request.URL")
	case req.Header == nil:
		return "", errors.New("http: nil Request.Header")
	case u.Scheme != "http":
		return "", fmt.Errorf("dataplane: unsupported protocol scheme %q", u.Scheme)
	case u.Host == "":
		return "", errors.New("http: no Host in request URL")
	case req.Method != "" && !isToken(req.Method):
		return "", fmt.Errorf("net/http: invalid method %q", req.Method)
	}
	for _, h := range [2]http.Header{req.Header, req.Trailer} {
		for k, vs := range h {
			if !isToken(k) {
				return "", fmt.Errorf("net/http: invalid header field name %q", k)
			}
			for _, v := range vs {
				if !validFieldValue(v) {
					return "", fmt.Errorf("net/http: invalid header field value for %q", k)
				}
			}
		}
	}
	if u.Port() == "" {
		return net.JoinHostPort(u.Hostname(), "80"), nil
	}
	return u.Host, nil
}

// isToken reports whether s is an RFC 7230 token: a header field name
// or a method.
func isToken(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		b := s[i]
		switch {
		case 'a' <= b && b <= 'z', 'A' <= b && b <= 'Z', '0' <= b && b <= '9':
		case strings.IndexByte("!#$%&'*+-.^_`|~", b) >= 0:
		default:
			return false
		}
	}
	return true
}

// validFieldValue reports whether v holds no control byte but tab.
func validFieldValue(v string) bool {
	for i := 0; i < len(v); i++ {
		if b := v[i]; (b < ' ' && b != '\t') || b == 0x7f {
			return false
		}
	}
	return true
}

// isProtocolSwitch reports whether a 101 answer's header names the
// protocol it switches to, which is when http.Transport hands the
// connection to the caller.
func isProtocolSwitch(h http.Header) bool {
	return h.Get("Upgrade") != "" && hasToken(h["Connection"], "upgrade")
}

// hasToken reports whether comma-separated field values vs list token.
func hasToken(vs []string, token string) bool {
	for _, v := range vs {
		for tok := range strings.SplitSeq(v, ",") {
			if strings.EqualFold(strings.TrimSpace(tok), token) {
				return true
			}
		}
	}
	return false
}
