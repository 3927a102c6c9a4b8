package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"github.com/servicelayernetworking/slate/internal/dataplane"
)

// rpcTimeout bounds each exchange of a control RPC on the transport
// NewTransport makes: its dial, and then its request and answer, from
// the connection's checkout to the last byte of the answer's body. A
// variable only so that a test can shorten it.
var rpcTimeout = 10 * time.Second

// NewTransport returns a transport for control RPCs, bounded by
// rpcTimeout: what NewGlobal, NewCluster and NewAgent each start with,
// and what an in-process mesh shares among its controllers.
func NewTransport() *dataplane.Control { return dataplane.NewControl(rpcTimeout) }

// jsonHeader is the header of every control POST, and noHeader of every
// control GET. They are shared by all of them and never written: a
// RoundTripper must not modify a request.
var (
	jsonHeader = http.Header{"Content-Type": {"application/json"}}
	noHeader   = http.Header{}
)

// Control-protocol headers. Both ends of the protocol live in this
// package: the Cluster handlers enforce them, and the Global and the
// Agent send or read them.
const (
	// headerLeaderEpoch carries the publishing leader's lease epoch on
	// rule pushes (requests) and the accepting controller's fenced epoch
	// on rule reads (responses). A push whose epoch is below the fenced
	// one is rejected: the sender was deposed.
	headerLeaderEpoch = "X-Slate-Leader-Epoch"
	// headerLeader carries the publishing leader's identity (its
	// advertised URL) on rule pushes.
	headerLeader = "X-Slate-Leader"
	// headerReject distinguishes 409 rejections: rejectStaleLeader and
	// rejectCAS mean "step down", a bare 409 means "version gap, resync".
	headerReject = "X-Slate-Reject"
	// rejectStaleLeader marks a push refused because its lease epoch is
	// below the fenced one.
	rejectStaleLeader = "stale-leader"
	// rejectCAS marks a push refused because it would replace the table
	// with an older version.
	rejectCAS = "cas"
)

// rpc does one control RPC: it sends body (nil or empty for none) to
// u with header h (nil for none) straight over rt, under ctx, and hands
// a 2xx response with its body to decode (nil to discard it), which
// must not keep the body. The body is read whole first and is held to
// maxBodyBytes, as a request's is: a longer one fails the RPC. The
// response is closed before rpc returns; a non-2xx one unread. A
// non-2xx answer comes back as a statusError, a transport failure as
// the *url.Error http.Client.Do would have returned ("Post \"<u>\": …").
//
// u was parsed once, where its peer became known, and rpc builds the
// request itself, with a body GetBody can replay: no URL parse, no
// header of its own, no copy of the body. Nor does rpc set a timeout:
// the transport (NewTransport) bounds each exchange by rpcTimeout on
// the connection itself, which costs no timer, context or goroutine per
// call. Going around http.Client skips the rest of what it does per
// request that a control RPC never needs, a redirect-safe copy of the
// header among it.
func rpc(ctx context.Context, rt http.RoundTripper, method string, u *url.URL, h http.Header, body []byte, decode func(*http.Response, []byte) error) error {
	if h == nil {
		h = noHeader
	}
	req := (&http.Request{Method: method, URL: u, Header: h}).WithContext(ctx)
	if len(body) > 0 {
		req.Body, req.ContentLength = newRPCBody(body), int64(len(body))
		req.GetBody = func() (io.ReadCloser, error) { return newRPCBody(body), nil }
	}
	resp, err := rt.RoundTrip(req)
	if err != nil {
		return &url.Error{Op: method[:1] + strings.ToLower(method[1:]), URL: u.Redacted(), Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return statusError{code: resp.StatusCode, reject: resp.Header.Get(headerReject)}
	}
	return readBody(resp.Body, resp.ContentLength, func(b []byte) error {
		if decode == nil {
			return nil
		}
		return decode(resp, b)
	})
}

// rpcBody is a control request's body: a reader over bytes rpc's
// caller holds until the RPC returns.
type rpcBody struct{ bytes.Reader }

func newRPCBody(b []byte) *rpcBody {
	r := &rpcBody{}
	r.Reset(b)
	return r
}

func (*rpcBody) Close() error { return nil }

// statusError is a non-2xx HTTP response, preserved as a typed error so
// callers can branch on the code (409 → resync) and the X-Slate-Reject
// marker (step down, don't resync) without string matching.
type statusError struct {
	code   int
	reject string
}

func (e statusError) Error() string {
	if e.reject != "" {
		return fmt.Sprintf("status %d (%s)", e.code, e.reject)
	}
	return fmt.Sprintf("status %d", e.code)
}

// statusCode extracts the HTTP status from an error chain produced by
// rpc, reporting whether one was found.
func statusCode(err error) (int, bool) {
	var se statusError
	if errors.As(err, &se) {
		return se.code, true
	}
	return 0, false
}

// rejectReason extracts the X-Slate-Reject marker from an error chain
// ("" when absent): a non-empty marker tells a pusher it was fenced
// out as a deposed leader rather than merely out of sync.
func rejectReason(err error) string {
	var se statusError
	if errors.As(err, &se) {
		return se.reject
	}
	return ""
}

// maxBodyBytes caps the body of a control request and of a control
// response, so no peer can make a handler or a caller hold more than
// this. The largest body any test, experiment or benchmark workload
// sends is a 4.2 kB report (48 clusters, 96 services, 24 classes), and
// the largest answer a 3.5 kB warm-state snapshot. The cap is some
// 4 000 times that, room for the full reports, patches and snapshots of
// far larger deployments.
const maxBodyBytes = 16 << 20

var errBodyTooLarge = fmt.Errorf("body over %d bytes", maxBodyBytes)

// bodies recycles the buffers control request and response bodies are
// read into. Not a field: the runtime lists every used sync.Pool until its
// second idle GC, so a pool inside a discarded Global or Cluster would
// pin all it points to.
var bodies = sync.Pool{New: func() any { return new([]byte) }}

// readBody reads body, of declared length (-1 for unknown), into a
// pooled buffer and hands it to decode, which must not keep it. A body
// past maxBodyBytes is refused with errBodyTooLarge: a declared length
// before anything is read, any other as soon as it crosses the cap.
func readBody(body io.Reader, length int64, decode func([]byte) error) error {
	if length > maxBodyBytes {
		return errBodyTooLarge
	}
	bp := bodies.Get().(*[]byte)
	b := (*bp)[:0]
	defer func() { *bp = b; bodies.Put(bp) }()
	if n := int(length); n >= cap(b) {
		b = make([]byte, 0, n+1) // +1: room for the read that sees EOF
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):min(cap(b), maxBodyBytes+1)])
		b = b[:len(b)+n]
		switch {
		case len(b) > maxBodyBytes:
			return errBodyTooLarge
		case err == io.EOF:
			return decode(b)
		case err != nil:
			return err
		}
	}
}

// decodeBody decodes a request body that must hold exactly one JSON
// value: unlike json.Decoder.Decode, it refuses anything after the value.
func decodeBody(r *http.Request, v any) error {
	return readBody(r.Body, r.ContentLength, func(b []byte) error { return json.Unmarshal(b, v) })
}

// badBody answers a request whose body was refused: 413 past the cap,
// 400 for anything else.
func badBody(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	if errors.Is(err, errBodyTooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	http.Error(w, err.Error(), code)
}
