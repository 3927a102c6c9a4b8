package controlplane

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// stripedIngest is the telemetry ingest as it was before it took one
// lock: sixteen lock stripes picked by an FNV hash of the cluster
// (refStripe), the window length written under the Global's mu, and an
// atomic count of pending clusters. It is kept to hold the one lock to
// it under concurrent reports (BenchmarkConcurrentReports).
type stripedIngest struct {
	g       *Global // intern table, counters, mu and the event trigger
	stripes [ingestStripes]ingestStripe
	pending atomic.Int64
	window  time.Duration // guarded by g.mu
}

// ingestStripe is one lock stripe of the striped ingest map.
type ingestStripe struct {
	mu       sync.Mutex
	clusters map[topology.ClusterID]*clusterIngest
	ids      []topology.ClusterID // the keys of clusters, sorted
}

func newStripedIngest(g *Global) *stripedIngest {
	s := &stripedIngest{g: g}
	for i := range s.stripes {
		s.stripes[i].clusters = make(map[topology.ClusterID]*clusterIngest)
	}
	return s
}

// handleMetrics is the striped Global's, verbatim but for the receiver;
// it predates the own-cluster key check.
func (s *stripedIngest) handleMetrics(w http.ResponseWriter, r *http.Request) {
	g := s.g
	var rep MetricsReport
	err := readBody(r.Body, r.ContentLength, func(b []byte) error { return decodeReport(b, &rep, &g.names) })
	if err == nil && rep.Cluster == "" {
		err = errors.New("report names no cluster")
	}
	if err == nil {
		err = checkRates(rep.Stats)
	}
	if err != nil {
		g.mReportErrs.Inc()
		badBody(w, err)
		return
	}
	if rep.WindowMS > 0 {
		g.mu.Lock()
		s.window = time.Duration(rep.WindowMS) * time.Millisecond
		g.mu.Unlock()
	}
	st := &s.stripes[refStripe(rep.Cluster)]
	st.mu.Lock()
	ci := st.clusters[rep.Cluster]
	if rep.Delta {
		if ci == nil || rep.Epoch != ci.epoch+1 {
			st.mu.Unlock()
			g.mEpochGaps.Inc()
			http.Error(w, "epoch gap: full report required", http.StatusConflict)
			return
		}
		ci.stats = stripedFoldDelta(ci.stats, rep.Stats, rep.Removed)
	} else {
		if ci == nil {
			ci = &clusterIngest{}
			st.clusters[rep.Cluster] = ci
			at, _ := slices.BinarySearch(st.ids, rep.Cluster)
			st.ids = slices.Insert(st.ids, at, rep.Cluster)
		}
		ci.stats = sortWindow(rep.Stats)
	}
	ci.epoch = rep.Epoch
	if !ci.reported {
		ci.reported = true
		g.mStaleGroups.Set(float64(s.pending.Add(1)))
	}
	lastRPS := ci.lastRPS
	var curRPS float64
	for i := range ci.stats {
		curRPS += ci.stats[i].RPS
	}
	ci.lastRPS = curRPS
	st.mu.Unlock()
	g.mReports.Inc()
	g.noteClusterLoad(lastRPS, curRPS)
	w.WriteHeader(http.StatusAccepted)
}

// stripedFoldDelta is the striped ingest's foldDelta: it searched with
// slices.BinarySearchFunc and re-checked the order after every delta.
func stripedFoldDelta(window, changed []telemetry.WindowStats, removed []telemetry.MetricKey) []telemetry.WindowStats {
	statVsKey := func(s telemetry.WindowStats, k telemetry.MetricKey) int { return s.Key.Compare(k) }
	known := window
	for _, ws := range changed {
		if i, ok := slices.BinarySearchFunc(known, ws.Key, statVsKey); ok {
			window[i] = ws
		} else {
			window = append(window, ws)
		}
	}
	window = sortWindow(window)
	for _, k := range removed {
		if i, ok := slices.BinarySearchFunc(window, k, statVsKey); ok {
			window = slices.Delete(window, i, i+1)
		}
	}
	return window
}

// codeWriter is a ResponseWriter that keeps only the status.
type codeWriter struct {
	h    http.Header
	code int
}

func (w *codeWriter) Header() http.Header         { return w.h }
func (w *codeWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *codeWriter) WriteHeader(code int)        { w.code = code }

// BenchmarkConcurrentReports posts telemetry from 48 clusters at once,
// one goroutine each, the way their cluster controllers do: a full
// report of 24 keys, then 63 steady deltas of 3 changed stats each, then
// the cycle again. "one-lock" posts through the Global's Handler,
// "striped" through the striped ingest it replaced. One report is one op;
// run it with -cpu to see the lock under several cores.
func BenchmarkConcurrentReports(b *testing.B) {
	const clusters, keys, cycle = 48, 24, 64
	bodies := make([][][]byte, clusters) // per cluster: epoch 1 (full), 2..cycle (deltas)
	for c := range bodies {
		id := topology.ClusterID(fmt.Sprintf("c%02d", c))
		stats := make([]telemetry.WindowStats, keys)
		for k := range stats {
			stats[k] = telemetry.WindowStats{
				Key:    telemetry.MetricKey{Service: fmt.Sprintf("svc-%d", k/3), Class: fmt.Sprintf("c%d", k%3), Cluster: string(id)},
				Window: time.Second, Requests: 100, RPS: 100, MeanLatency: 20 * time.Millisecond,
			}
		}
		for e := 1; e <= cycle; e++ {
			rep := MetricsReport{Cluster: id, WindowMS: 1000, Epoch: uint64(e), Stats: stats}
			if e > 1 {
				changed := make([]telemetry.WindowStats, 3)
				for i := range changed {
					changed[i] = stats[(3*e+i)%keys]
					changed[i].RPS = float64(100 + e)
				}
				rep.Delta, rep.Stats = true, changed
			}
			body, err := json.Marshal(rep)
			if err != nil {
				b.Fatal(err)
			}
			bodies[c] = append(bodies[c], body)
		}
	}
	ctrl, err := core.NewController(topology.TwoClusters(40*time.Millisecond), chainApp(), core.ControllerConfig{DemandSmoothing: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, impl := range []struct {
		name    string
		handler func(*Global) http.Handler
	}{
		{"one-lock", (*Global).Handler},
		{"striped", func(g *Global) http.Handler {
			mux := http.NewServeMux()
			mux.HandleFunc("POST /v1/metrics", newStripedIngest(g).handleMetrics)
			return mux
		}},
	} {
		b.Run(impl.name, func(b *testing.B) {
			h := impl.handler(NewGlobal(ctrl))
			var sent atomic.Int64
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for c := range clusters {
				wg.Add(1)
				go func() {
					defer wg.Done()
					w := &codeWriter{h: http.Header{}}
					body := bytes.NewReader(nil)
					req, err := http.NewRequest(http.MethodPost, "/v1/metrics", io.NopCloser(body))
					if err != nil {
						b.Error(err)
						return
					}
					for k := 0; sent.Add(1) <= int64(b.N); k++ {
						rep := bodies[c][k%cycle]
						body.Reset(rep)
						req.ContentLength = int64(len(rep))
						h.ServeHTTP(w, req)
						if w.code != http.StatusAccepted {
							b.Errorf("cluster %d report %d: status %d", c, k%cycle+1, w.code)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
