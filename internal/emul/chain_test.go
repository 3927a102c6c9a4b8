package emul

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/dataplane"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

var recordChain = flag.Bool("record-chain", false, "rewrite testdata/chain-recorded.txt from this run")

// chainRequests is how many sequential requests TestChainMatchesRecorded
// sends.
const chainRequests = 24

// TestChainMatchesRecorded holds the request path to what it recorded
// before: 24 sequential requests through a three-service chain split
// 50/50 between two clusters, seed 1. Every span's trace, id, parent,
// service, cluster, class and remote flag must equal the recorded ones.
// A child span's cluster is its caller's outbound pick, so the file also
// fixes every routing decision. Span ids are RNG draws, so an equal file
// also means every sidecar draws the same numbers in the same order.
//
// The requests mix the ways a request enters the mesh: with a class and
// a trace id, with a class only (the ingress mints the trace), with
// neither (the ingress classifies), and with a class that needs escaping
// on the wire.
func TestChainMatchesRecorded(t *testing.T) {
	top := topology.TwoClusters(20 * time.Millisecond)
	app := appgraph.LinearChain(appgraph.ChainOptions{
		Services:        2,
		MeanServiceTime: time.Millisecond,
		Pool:            appgraph.ReplicaPool{Replicas: 1, Concurrency: 4},
		Clusters:        top.ClusterIDs(),
		RequestBytes:    64,
		ResponseBytes:   128,
	})
	m := startMesh(t, Options{Top: top, App: app, TimeScale: 1e-9, NetemScale: 1e-9, Seed: 1})
	half, err := routing.NewDistribution(map[topology.ClusterID]float64{topology.West: 0.5, topology.East: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rules := map[routing.Key]routing.Distribution{}
	for sid := range app.Services {
		for _, c := range top.ClusterIDs() {
			if sid != app.FrontendService() {
				rules[routing.Key{Service: string(sid), Class: routing.AnyClass, Cluster: c}] = half
			}
		}
	}
	tab := routing.NewTable(1, rules)
	for _, c := range top.ClusterIDs() {
		m.ClusterController(c).ApplyTable(tab)
	}
	fe, err := m.FrontendURL(topology.West)
	if err != nil {
		t.Fatal(err)
	}
	root := app.Classes[0].Root
	body := make([]byte, root.Work.RequestBytes)
	for i := range chainRequests {
		req, err := http.NewRequest(root.Method, fe+root.Path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		switch i % 4 {
		case 0:
			req.Header.Set(dataplane.HeaderClass, "default")
			req.Header.Set(dataplane.HeaderTraceID, strconv.FormatUint(uint64(i+1)<<40|0xbeef, 16))
		case 1:
			req.Header.Set(dataplane.HeaderClass, "default")
		case 3:
			req.Header.Set(dataplane.HeaderClass, "gold; tier=1 %")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}

	// A sidecar records its span after the response has left: wait for
	// all of them.
	const want = 3 * chainRequests
	var spans []telemetry.Span
	for deadline := time.Now().Add(5 * time.Second); len(spans) < want && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		spans = append(spans, m.DrainSpans()...)
	}
	if len(spans) != want {
		t.Fatalf("%d spans, want %d", len(spans), want)
	}
	var got strings.Builder
	for _, s := range spans {
		fmt.Fprintf(&got, "%x %x %x %s %s %q %t\n", uint64(s.Trace), uint64(s.ID), uint64(s.Parent), s.Service, s.Cluster, s.Class, s.Remote)
	}
	path := filepath.Join("testdata", "chain-recorded.txt")
	if *recordChain {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	recorded, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(recorded), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d span lines, recorded %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("span %d:\n got  %s\n want %s", i, gotLines[i], wantLines[i])
		}
	}
}
