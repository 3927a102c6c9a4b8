package dataplane

import (
	"io"
	"math/big"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// FuzzHopContext: formatting then parsing a context gives it back, for
// any class and cluster strings; any value parses without panicking, and
// one that parses is exactly the format of what it parsed to. The edge
// trace rule reads any hex id as its low 64 bits and anything else as
// zero.
func FuzzHopContext(f *testing.F) {
	f.Add(uint64(0x1f), uint64(0x2e), "west", "default", "1f;2e;west;default")
	f.Add(uint64(1), uint64(0), "", "", "1;0;;")
	f.Add(uint64(1<<64-1), uint64(1<<63), "east", "gateway|POST /ingress", "4bf92f3577b34da6a3ce929d0e0e4736")
	f.Fuzz(func(t *testing.T, trace, parent uint64, source, class, raw string) {
		c := hopContext{trace: trace, parent: parent, source: source, class: class}
		v := c.String()
		got, ok := parseHop(v)
		switch {
		case trace == 0 && ok:
			t.Fatalf("parseHop(%q) accepted a zero trace", v)
		case trace != 0 && (!ok || got != c):
			t.Fatalf("parseHop(%q) = %+v, %v; want %+v", v, got, ok, c)
		}
		if got, ok := parseHop(raw); ok && got.String() != raw {
			t.Fatalf("parseHop(%q) accepted a value that formats as %q", raw, got.String())
		}
		want := uint64(0)
		if n, isHex := new(big.Int).SetString(raw, 16); isHex && raw != "" && !strings.ContainsAny(raw, "+-") {
			want = new(big.Int).And(n, new(big.Int).SetUint64(1<<64-1)).Uint64()
		}
		if got := edgeTrace(raw); got != want {
			t.Fatalf("edgeTrace(%q) = %x, want %x", raw, got, want)
		}
	})
}

// TestParseHopAllocates: reading a context without escapes allocates
// nothing, and formatting one allocates only its string. The class is
// one the ingress classifier names, spaces included.
func TestParseHopAllocates(t *testing.T) {
	c := hopContext{trace: 0x1f, parent: 0x2e, source: string(topology.West), class: "gateway|POST /ingress"}
	v := c.String()
	if got := testing.AllocsPerRun(100, func() {
		if got, ok := parseHop(v); !ok || got != c {
			t.Fatalf("parseHop(%q) = %+v, %v", v, got, ok)
		}
	}); got > 0 {
		t.Errorf("parseHop: %.0f allocations, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { _ = c.String() }); got > 1 {
		t.Errorf("hopContext.String: %.0f allocations, want 1", got)
	}
}

// TestParseHopRejectsMalformed: a value formatting could not have
// written reads as no context.
func TestParseHopRejectsMalformed(t *testing.T) {
	for _, v := range []string{
		"",
		"1f;2e;west",            // a field short
		"0;2e;west;default",     // zero trace
		"1F;2e;west;default",    // uppercase hex
		"01f;2e;west;default",   // leading zero
		";2e;west;default",      // empty trace
		"1f;2e;west;a;b",        // bare ';' in the class
		"1f;2e;west;a ",         // bare space ending the value
		"1f;2e;west;a%20b",      // escaped space inside it
		"1f;2e;west;a%3bb",      // lowercase escape
		"1f;2e;west;a%41",       // escape of a byte that needs none
		"1f;2e;west;a%3",        // truncated escape
		"11111111111111111;0;;", // 17 hex digits
	} {
		if c, ok := parseHop(v); ok {
			t.Errorf("parseHop(%q) = %+v, want malformed", v, c)
		}
	}
}

// TestEdgeTraceIDs: the trace id an edge request brings keeps its low
// 64 bits, so two distinct W3C 128-bit ids stay two traces; a non-hex or
// zero id is replaced by a minted one rather than recorded as zero.
func TestEdgeTraceIDs(t *testing.T) {
	reg := newRegistry()
	app := echoApp(t, "app")
	p, srv := newProxy(t, "svc", topology.West, app.URL, reg, nil)
	ids := []string{
		"4bf92f3577b34da6a3ce929d0e0e4736",
		"4bf92f3577b34da6a3ce929d0e0e4737",
		"not-hex",
		"0",
	}
	for _, id := range ids {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/x", nil)
		req.Header.Set(HeaderTraceID, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	// A sidecar records its span after the response has left: wait for
	// all of them.
	var spans []telemetry.Span
	for deadline := time.Now().Add(2 * time.Second); len(spans) < len(ids) && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		spans = append(spans, p.DrainSpans()...)
	}
	traces := map[telemetry.TraceID]bool{}
	for _, s := range spans {
		traces[s.Trace] = true
	}
	if len(spans) != len(ids) || len(traces) != len(ids) || traces[0] {
		t.Errorf("%d edge ids recorded as traces %v, want %d distinct non-zero ones", len(ids), traces, len(ids))
	}
	if !traces[0xa3ce929d0e0e4736] || !traces[0xa3ce929d0e0e4737] {
		t.Errorf("128-bit ids recorded as traces %v, want their low 64 bits", traces)
	}
}

// TestHopCarriesOneSlateField: past the edge, a hop carries SLATE's
// context in one field. The request that reaches the app carries only
// X-Slate-Context; the one an app sends carries it beside
// X-Slate-Outbound, and the one that reaches the peer sidecar carries
// only the context again. No response carries an X-Slate field.
func TestHopCarriesOneSlateField(t *testing.T) {
	caller, peer, app := sidecarPair(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	slateFields := func(h http.Header) []string {
		var names []string
		for k := range h {
			if strings.HasPrefix(k, "X-Slate-") {
				names = append(names, k)
			}
		}
		return names
	}
	send := func(base string, h http.Header) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, base+"/x", strings.NewReader("body"))
		req.Header = h
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if names := slateFields(resp.Header); len(names) > 0 {
			t.Errorf("response carries %v", names)
		}
	}
	arrived := func(who string, u *upstream) http.Header {
		t.Helper()
		u.mu.Lock()
		defer u.mu.Unlock()
		h := u.headers[len(u.headers)-1]
		if names := slateFields(h); len(names) != 1 || names[0] != HeaderContext {
			t.Errorf("%s got X-Slate fields %v, want only %s", who, names, HeaderContext)
		}
		return h
	}

	// An edge request into the callee's sidecar.
	send(peer.URL, http.Header{HeaderClass: {"gold"}, HeaderTraceID: {"4bf92f3577b34da6a3ce929d0e0e4736"}})
	h := arrived("the app, from an edge request", app)
	in, ok := readHop(h)
	if !ok || in.class != "gold" || in.trace != 0xa3ce929d0e0e4736 || in.source != string(topology.West) {
		t.Errorf("the app got context %q = %+v, %v", h.Get(HeaderContext), in, ok)
	}

	// The app calls the callee through its sidecar, copying the context.
	send(caller.URL, http.Header{HeaderOutbound: {"callee"}, HeaderContext: h[HeaderContext]})
	if got := arrived("the peer sidecar", peer).Get(HeaderContext); got != h.Get(HeaderContext) {
		t.Errorf("the peer sidecar got context %q, want the app's %q", got, h.Get(HeaderContext))
	}
	child, ok := readHop(arrived("the app, from a peer", app))
	if !ok || child.class != "gold" || child.trace != in.trace || child.parent == in.parent {
		t.Errorf("the callee's app got context %+v, %v; want class gold, trace %x and a new parent", child, ok, in.trace)
	}
}
