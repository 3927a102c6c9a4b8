package fault

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/servicelayernetworking/slate/internal/topology"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok")
	}))
	t.Cleanup(srv.Close)
	return srv
}

// globalAt maps srv's host to the global controller's target.
func globalAt(srv *httptest.Server) *HostMap {
	hm := NewHostMap()
	hm.Register(srv.URL, Global)
	return hm
}

func TestTransportPassThrough(t *testing.T) {
	srv := testServer(t)
	inj := NewInjector()
	client := &http.Client{Transport: NewTransport(http.DefaultTransport, inj, ClusterTarget("west"), globalAt(srv))}
	req, _ := http.NewRequestWithContext(context.Background(), http.MethodGet, srv.URL, nil)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestTransportDropOnCrash(t *testing.T) {
	srv := testServer(t)
	inj := NewInjector()
	inj.Crash(Global)
	client := &http.Client{Transport: NewTransport(http.DefaultTransport, inj, ClusterTarget("west"), globalAt(srv))}
	req, _ := http.NewRequestWithContext(context.Background(), http.MethodGet, srv.URL, nil)
	_, err := client.Do(req)
	if err == nil {
		t.Fatal("RPC to crashed target succeeded")
	}
	if !errors.Is(err, ErrInjected) {
		t.Errorf("error %v does not wrap ErrInjected", err)
	}
}

// closeTracker records whether the transport closed the request body.
type closeTracker struct {
	io.Reader
	closed bool
}

func (c *closeTracker) Close() error { c.closed = true; return nil }

func TestTransportDropClosesBody(t *testing.T) {
	srv := testServer(t)
	inj := NewInjector()
	inj.Crash(Global)
	tr := NewTransport(http.DefaultTransport, inj, ClusterTarget("west"), globalAt(srv))
	body := &closeTracker{Reader: strings.NewReader(`{"k":1}`)}
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, srv.URL, body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.RoundTrip(req); !errors.Is(err, ErrInjected) {
		t.Fatalf("RoundTrip error = %v, want ErrInjected", err)
	}
	if !body.closed {
		t.Error("dropped request's body not closed")
	}
}

func TestTransportPartitionDrop(t *testing.T) {
	srv := testServer(t)
	inj := NewInjector()
	hm := NewHostMap()
	hm.Register(srv.URL, ClusterTarget(topology.East))
	client := &http.Client{Transport: NewTransport(http.DefaultTransport, inj, ProxyTarget("svc", topology.West), hm)}
	do := func() error {
		req, _ := http.NewRequestWithContext(context.Background(), http.MethodGet, srv.URL, nil)
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil
	}
	inj.PartitionClusters(topology.West, topology.East)
	if err := do(); !errors.Is(err, ErrInjected) {
		t.Fatalf("cross-cluster RPC under partition: err = %v, want ErrInjected", err)
	}
	inj.HealClusters(topology.West, topology.East)
	if err := do(); err != nil {
		t.Fatalf("RPC after heal: %v", err)
	}
}

func TestHostMapResolution(t *testing.T) {
	hm := NewHostMap()
	hm.Register("http://10.0.0.4:7000", Global)
	hm.Register("10.1.0.4:7101", ClusterTarget(topology.East))

	mk := func(url string) *http.Request {
		req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	if got := hm.TargetOf(mk("http://10.0.0.4:7000/v1/metrics")); got != Global {
		t.Errorf("TargetOf(global host) = %q", got)
	}
	if got := hm.TargetOf(mk("http://10.1.0.4:7101/v1/rules")); got != ClusterTarget(topology.East) {
		t.Errorf("TargetOf(east host) = %q", got)
	}
	// Unregistered hosts fall back to the raw host (matches nothing).
	if got := hm.TargetOf(mk("http://203.0.113.9:80/")); got != Target("203.0.113.9:80") {
		t.Errorf("TargetOf(unknown host) = %q", got)
	}
	// A nil map resolves every request by its URL host.
	var none *HostMap
	if got := none.TargetOf(mk("http://10.0.0.4:7000/")); got != Target("10.0.0.4:7000") {
		t.Errorf("nil TargetOf = %q", got)
	}
}
