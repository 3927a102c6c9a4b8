package dataplane

import (
	"bufio"
	"errors"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Control is the http.RoundTripper control RPCs travel on. It is an
// Upstream, with its pool, probe, per-response body, cancellation and
// retry rule, in all but two steps:
//
//   - It writes a request with writeControlHead, not with
//     (*http.Request).Write. The control protocol builds every request
//     it sends in one place, in a handful of fixed shapes, so it needs
//     none of the general writer's framing, and pays for none of its
//     formatting. Answers are still read by http.ReadResponse.
//   - It bounds each exchange by the timeout NewControl was given: the
//     dial carries it, and a connection holds it as its deadline from
//     checkout until it goes back to the pool. An exchange that runs it
//     out fails with an error whose Timeout() is true, and is not
//     retried. The caller's context still aborts an exchange early.
//
// Safe for concurrent use.
type Control struct{ up Upstream }

// NewControl returns a control transport whose exchanges are bounded
// by timeout.
func NewControl(timeout time.Duration) *Control {
	return &Control{up: Upstream{dialer: net.Dialer{Timeout: timeout}, control: true, timeout: timeout}}
}

// RoundTrip implements http.RoundTripper. It refuses, before it checks
// a connection out, what Upstream refuses and what checkControl does.
func (t *Control) RoundTrip(req *http.Request) (*http.Response, error) {
	return t.up.RoundTrip(req)
}

// CloseIdleConnections closes every pooled connection, as
// Upstream.CloseIdleConnections does.
func (t *Control) CloseIdleConnections() { t.up.CloseIdleConnections() }

var (
	errControlShape = errors.New("dataplane: a control request needs a body of declared length or none, a plain URL, Host and method, and no Transfer-Encoding, trailer or Close")
	errBodyLength   = errors.New("dataplane: a control request's body is not ContentLength bytes long")
)

// checkControl refuses the requests writeControlHead does not write:
// one with a Transfer-Encoding, a trailer or Close set, a body without
// a declared length (or a length without a body), an opaque URL, a
// query with a control byte or a space (a path is written escaped), a
// Host with a byte other than a letter, a digit or one of "-._~:[]",
// or the CONNECT method. What checkRequest refuses it leaves to
// checkRequest.
func checkControl(req *http.Request) error {
	hasBody := req.Body != nil && req.Body != http.NoBody
	host := req.Host
	if host == "" {
		host = req.URL.Host
	}
	if len(req.TransferEncoding) > 0 || len(req.Trailer) > 0 || req.Close ||
		hasBody != (req.ContentLength > 0) || req.ContentLength < 0 ||
		req.URL.Opaque != "" || !plain(req.URL.RawQuery, "") || !plain(host, "-._~:[]") ||
		req.Method == http.MethodConnect {
		return errControlShape
	}
	return nil
}

// writeControlHead writes a request checkControl and checkRequest
// accepted into w, and closes its body:
//
//	METHOD SP RequestURI SP HTTP/1.1
//	Host, from req.Host or else the URL's
//	the request's header lines, in map order, but those Request.Write
//	  leaves out of them (Host, Content-Length, Transfer-Encoding,
//	  Trailer)
//	Content-Length, when there is a body
//	the blank line, then the body
//
// What http.ReadRequest reads from these bytes is what it reads from
// Request.Write's, but for the User-Agent net/http adds of its own.
//
//slate:hot
func writeControlHead(w *bufio.Writer, req *http.Request) error {
	u := req.URL
	host := req.Host
	if host == "" {
		host = u.Host
	}
	method := req.Method
	if method == "" {
		method = http.MethodGet
	}
	w.WriteString(method)
	w.WriteByte(' ')
	if path := u.EscapedPath(); path != "" {
		w.WriteString(path)
	} else {
		w.WriteByte('/')
	}
	if u.ForceQuery || u.RawQuery != "" {
		w.WriteByte('?')
		w.WriteString(u.RawQuery)
	}
	w.WriteString(" HTTP/1.1\r\nHost: ")
	w.WriteString(host)
	w.WriteString("\r\n")
	for k, vs := range req.Header {
		switch k {
		case "Host", "Content-Length", "Transfer-Encoding", "Trailer":
			continue
		}
		for _, v := range vs {
			w.WriteString(k)
			w.WriteString(": ")
			w.WriteString(v)
			w.WriteString("\r\n")
		}
	}
	if req.ContentLength > 0 {
		w.WriteString("Content-Length: ")
		w.Write(strconv.AppendInt(w.AvailableBuffer(), req.ContentLength, 10))
		w.WriteString("\r\n")
	}
	// A bufio.Writer keeps its first error, so this last write of the
	// head reports any before it.
	_, err := w.WriteString("\r\n")
	if body := req.Body; body != nil {
		if body != http.NoBody && err == nil {
			var n int64
			if n, err = w.ReadFrom(body); err == nil && n != req.ContentLength {
				err = errBodyLength
			}
		}
		if cerr := body.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// plain reports whether s holds only letters, digits and, if marks is
// empty, any other printable ASCII but space; else only the bytes of
// marks. A Host of these bytes is what httpguts.ValidHostHeader allows
// less RFC 3986's sub-delims, which no control peer's name uses, and
// '%', an IPv6 zone that Request.Write would strip.
func plain(s, marks string) bool {
	for i := 0; i < len(s); i++ {
		switch b := s[i]; {
		case 'a' <= b && b <= 'z', 'A' <= b && b <= 'Z', '0' <= b && b <= '9':
		case marks == "" && ' ' < b && b < 0x7f, strings.IndexByte(marks, b) >= 0:
		default:
			return false
		}
	}
	return true
}
