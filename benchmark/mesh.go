package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

const (
	// meshSetups is how many times the mesh is started and warmed;
	// setup_s is the median.
	meshSetups = 5
	// meshWarm is the warm-up load of one set-up, a fixed number of
	// requests so that set-up time tracks the mesh's speed.
	meshWarm = 1000
	// meshClients is the closed-loop client count and the open-loop
	// connection count: the box has two cores and the mesh shares them.
	meshClients = 2
	// meshOpenRate is the open-loop offered load, about a sixth of what
	// the closed loop sustains on the reference box, so no backlog grows.
	meshOpenRate = 400.0
	// meshSlice is the stretch of load one slice value is taken over.
	meshSlice = 500 * time.Millisecond
)

// meshClient sends requests into the West frontend the way an external
// user would: no class header (the ingress classifier runs), one
// keep-alive connection per worker.
type meshClient struct {
	ctx     context.Context
	rig     *meshRig
	clients []*http.Client
	body    []byte
	traced  bool
}

func newMeshClient(ctx context.Context, rig *meshRig, workers int) *meshClient {
	c := &meshClient{ctx: ctx, rig: rig, body: bytes.Repeat([]byte("x"), int(rig.reqLen))}
	for i := 0; i < workers; i++ {
		c.clients = append(c.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
	}
	return c
}

func (c *meshClient) close() {
	for _, cl := range c.clients {
		cl.CloseIdleConnections()
	}
}

// do sends request op and checks status and body length. In a traced
// run the operation id travels as the trace id, so the sidecars' spans
// can be filed under the client's.
func (c *meshClient) do(worker, op int) error {
	req, err := http.NewRequestWithContext(c.ctx, c.rig.method, c.rig.frontend+c.rig.path, bytes.NewReader(c.body))
	if err != nil {
		return err
	}
	if c.traced {
		req.Header.Set(headerTraceID, strconv.FormatUint(uint64(op), 16))
	}
	return fetch(c.clients[worker], req, c.rig.bodyLen)
}

// fetch performs req and verifies a 2xx answer of exactly want bytes.
func fetch(cl *http.Client, req *http.Request, want int64) error {
	resp, err := cl.Do(req)
	if err != nil {
		return err
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		return err
	case resp.StatusCode/100 != 2:
		return fmt.Errorf("status %d", resp.StatusCode)
	case n != want:
		return fmt.Errorf("body of %d bytes, want %d", n, want)
	}
	return nil
}

// collector plays the cluster controllers' timer during a load phase:
// once a second it closes the telemetry window and drains the span
// buffers. stop performs the final collection and returns the totals.
type collector struct {
	rig      *meshRig
	quit     chan struct{}
	done     sync.WaitGroup
	requests uint64
	spans    []meshSpan
}

func startCollector(rig *meshRig) *collector {
	c := &collector{rig: rig, quit: make(chan struct{})}
	c.done.Add(1)
	go func() {
		defer c.done.Done()
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				c.collect()
			case <-c.quit:
				return
			}
		}
	}()
	return c
}

func (c *collector) collect() {
	n, spans := c.rig.collect(time.Second)
	c.requests += n
	c.spans = append(c.spans, spans...)
}

func (c *collector) stop() (requests uint64, spans []meshSpan) {
	close(c.quit)
	c.done.Wait()
	c.collect()
	return c.requests, c.spans
}

// meshGates checks what the mesh itself recorded about a phase against
// what the client sent: every request visited every hop exactly once
// and left a complete trace.
func meshGates(out *outcome, phase string, res *loadResult, requests uint64, spans []meshSpan) (traces, remote, nonRoot int) {
	if res.failed > 0 {
		out.problem("%s: %d of %d requests failed, first: %v", phase, res.failed, res.sent(), res.firstErr)
		return 0, 0, 0
	}
	if want := uint64(res.sent() * meshHops); requests != want {
		out.problem("%s: telemetry counted %d inbound requests, want %d (sent × %d)", phase, requests, want, meshHops)
	}
	traces, remote, nonRoot, err := checkTraces(spans)
	switch {
	case err != nil:
		out.problem("%s: %v", phase, err)
	case traces != res.sent():
		out.problem("%s: %d complete traces for %d requests", phase, traces, res.sent())
	}
	return traces, remote, nonRoot
}

// startWarmMesh is one set-up: start the mesh, install the table, and
// run the warm-up load so connections, classifier and metric series
// exist before anything is measured.
func startWarmMesh(ctx context.Context, cfg runConfig) (*meshRig, error) {
	rig, err := startMesh(cfg.seed)
	if err != nil {
		return nil, err
	}
	cl := newMeshClient(ctx, rig, meshClients)
	defer cl.close()
	warm := closedLoop(meshClients, time.Minute, meshWarm, 0, cl.do)
	if warm.failed > 0 || len(warm.latencies) == 0 {
		rig.close()
		return nil, fmt.Errorf("warm-up: %d ok, %d failed, first: %v", len(warm.latencies), warm.failed, warm.firstErr)
	}
	rig.collect(time.Second) // discard the warm-up window and spans
	return rig, nil
}

func runMesh(cfg runConfig) (*outcome, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := newOutcome()
	rig, setup, err := setUpRepeatedly(meshSetups,
		func() (*meshRig, error) { return startWarmMesh(ctx, cfg) }, (*meshRig).close)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	out.set("setup_s", setup)
	if cfg.trace {
		return out, traceMesh(ctx, cfg, rig, out)
	}

	cl := newMeshClient(ctx, rig, meshClients)
	defer cl.close()
	phase := cfg.seconds * 45 / 100

	// Phase A: closed loop — throughput and cost per request, slice by
	// slice.
	settle()
	col := startCollector(rig)
	a := &loadResult{}
	var rates, cpus []float64
	m0 := mallocs()
	for begin := time.Now(); time.Since(begin) < phase; {
		c0 := cpuTime()
		r := closedLoop(meshClients, meshSlice, 0, a.sent(), cl.do)
		cpu := cpuTime() - c0
		a.add(r)
		if ok := float64(len(r.latencies)); ok > 0 {
			rates = append(rates, ok/r.wall.Seconds())
			cpus = append(cpus, us(cpu)/ok)
		}
	}
	allocs := mallocs() - m0
	requests, spans := col.stop()
	meshGates(out, "closed loop", a, requests, spans)

	// Phase B: open loop — latency from the scheduled send time.
	col = startCollector(rig)
	b := openLoop(meshClients, meshOpenRate, phase, a.sent(), cl.do)
	requests, spans = col.stop()
	meshGates(out, "open loop", b, requests, spans)

	out.attempted = a.sent() + b.sent()
	out.failed = a.failed + b.failed
	if len(a.latencies) == 0 || len(b.latencies) == 0 {
		return nil, fmt.Errorf("no successful request: %v", out.problems)
	}
	p50s, _, _ := bySlice(b.inOpOrder(), int(meshOpenRate*meshSlice.Seconds()))
	tail, pct := tailValue(sortedCopy(durationsMS(b.latencies)))
	out.set("op_ms", fastSide(p50s, false))
	out.set("ops_per_s", fastSide(rates, true))
	out.set("cpu_us_per_op", fastSide(cpus, false))
	out.set("allocs_per_op", float64(allocs)/float64(len(a.latencies)))
	out.set("peak_rss_mb", peakRSSMB())
	out.note("closed loop: %d clients, %d requests in %.2f s, %d slices", meshClients, a.sent(), a.wall.Seconds(), len(rates))
	out.note("open loop: %.0f req/s over %d connections, %d requests, %d slices; latency from due time p%.0f over the whole phase %.3f ms; generator at most %.3f ms late",
		meshOpenRate, meshClients, b.sent(), len(p50s), pct, tail, ms(b.maxLate))
	return out, nil
}

// traceMesh is the traced run: the closed loop without and with
// tracing (the ratio is the tracing overhead), an open loop for the tail
// and the generator's lateness, and the per-module probes.
func traceMesh(ctx context.Context, cfg runConfig, rig *meshRig, out *outcome) error {
	tr := newTracer()
	cl := newMeshClient(ctx, rig, meshClients)
	defer cl.close()

	settle()
	plain := closedLoop(meshClients, cfg.seconds*15/100, 0, 0, cl.do)
	rig.collect(time.Second)
	if len(plain.latencies) == 0 {
		return fmt.Errorf("untraced stretch: no successful request, first error: %v", plain.firstErr)
	}

	// Traced closed loop: one client span per request, the sidecars' spans
	// filed under it afterwards.
	cl.traced = true
	var mu sync.Mutex
	clientSpan := map[uint64]int{}
	col := startCollector(rig)
	traced := closedLoop(meshClients, cfg.seconds*25/100, 0, 1, func(w, op int) error {
		start := time.Now()
		err := cl.do(w, op)
		id := tr.add("mesh.request", op, 0, start, time.Since(start))
		mu.Lock()
		clientSpan[uint64(op)] = id
		mu.Unlock()
		return err
	})
	requests, spans := col.stop()
	traces, remote, nonRoot := meshGates(out, "traced closed loop", traced, requests, spans)
	if len(traced.latencies) == 0 || traces == 0 {
		return fmt.Errorf("traced stretch failed: %v", out.problems)
	}
	leaf := addMeshSpans(tr, spans, clientSpan)
	out.set("dataplane.spans_per_req", float64(len(spans))/float64(traces))
	// Every span is one inbound pass; every non-root span was reached
	// through one outbound pass of its caller's sidecar.
	out.set("dataplane.passes_per_req", float64(len(spans)+nonRoot)/float64(traces))
	out.set("dataplane.remote_ratio", float64(remote)/float64(nonRoot))
	var leafSelf []float64
	for _, d := range tr.selfByName()[leaf] {
		leafSelf = append(leafSelf, us(d))
	}
	out.set("emul.leaf_hop_p50_us", median(leafSelf))
	plainRate := float64(len(plain.latencies)) / plain.wall.Seconds()
	tracedRate := float64(len(traced.latencies)) / traced.wall.Seconds()
	out.set("trace.overhead_ratio", plainRate/tracedRate)

	cl.traced = false
	col = startCollector(rig)
	open := openLoop(meshClients, meshOpenRate, cfg.seconds*25/100, 0, cl.do)
	requests, spans = col.stop()
	meshGates(out, "open loop", open, requests, spans)
	lat := sortedCopy(durationsMS(open.latencies))
	tail, _ := tailValue(lat)
	out.set("trace.op_ms", quantile(lat, 0.5))
	out.set("trace.op_tail_ms", tail)
	out.set("emul.lat_p99_ms", quantile(lat, 0.99))
	out.set("gen.max_late_ms", ms(open.maxLate))
	out.attempted = traced.sent() + open.sent()
	out.failed = traced.failed + open.failed

	if err := meshProbes(ctx, cfg, rig, cl.clients[0], out); err != nil {
		return err
	}
	out.note("traced closed loop %d requests (%d untraced before them), open loop %d requests", traced.sent(), plain.sent(), open.sent())
	return tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".jsonl"))
}

// probeRequests is how many sequential requests each latency probe
// takes its median over.
const probeRequests = 1500

// meshProbes times the request path's modules one at a time from the
// outside: the net/http floor of a 3-hop chain with no sidecars, one
// sidecar's added latency per direction, the leaf modules' hot calls,
// and a metrics scrape.
func meshProbes(ctx context.Context, cfg runConfig, rig *meshRig, client *http.Client, out *outcome) error {
	lb := &loopback{}
	defer lb.close()
	payload := make([]byte, rig.bodyLen)
	reqBody := bytes.Repeat([]byte("x"), int(rig.reqLen))

	p50 := func(url, outbound string) (float64, error) {
		var lat []float64
		for i := 0; i < probeRequests; i++ {
			req, err := http.NewRequestWithContext(ctx, rig.method, url, bytes.NewReader(reqBody))
			if err != nil {
				return 0, err
			}
			if outbound != "" {
				req.Header.Set(headerOutbound, outbound)
			}
			start := time.Now()
			if err := fetch(client, req, rig.bodyLen); err != nil {
				return 0, fmt.Errorf("probe %s: %w", url, err)
			}
			lat = append(lat, us(time.Since(start)))
		}
		return median(lat[probeRequests/10:]), nil
	}

	// Floor: the same three hops as the mesh, plain handlers calling one
	// another over loopback, no sidecar anywhere.
	hop := func(next string) http.Handler {
		hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			if next != "" {
				req, err := http.NewRequestWithContext(r.Context(), r.Method, next, bytes.NewReader(reqBody))
				if err == nil {
					err = fetch(hc, req, rig.bodyLen)
				}
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadGateway)
					return
				}
			}
			w.Write(payload)
		})
	}
	url := ""
	for i := 0; i < meshHops; i++ {
		u, err := lb.serve(hop(url))
		if err != nil {
			return err
		}
		url = u + rig.path
	}
	floor, err := p50(url, "")
	if err != nil {
		return err
	}
	out.set("emul.floor_p50_us", floor)

	// One sidecar in front of a no-op application.
	appURL, err := lb.serve(hop(""))
	if err != nil {
		return err
	}
	proxy, err := probeProxy(appURL, appURL, cfg.seed)
	if err != nil {
		return err
	}
	proxyURL, err := lb.serve(proxy)
	if err != nil {
		return err
	}
	direct, err := p50(appURL+rig.path, "")
	if err != nil {
		return err
	}
	inbound, err := p50(proxyURL+rig.path, "")
	if err != nil {
		return err
	}
	outbound, err := p50(proxyURL+rig.path, "probe-target")
	if err != nil {
		return err
	}
	out.set("dataplane.inbound_added_us", inbound-direct)
	out.set("dataplane.outbound_added_us", outbound-direct)

	const hot = 500000
	out.set("routing.lookup_pick_ns", nsPerOp(probeLookupPick(rig, cfg.seed), hot))
	out.set("classifier.classify_ns", nsPerOp(probeClassify(), hot))
	out.set("telemetry.record_ns", nsPerOp(probeRecord(), hot))
	setTable, err := probeSetTable(rig)
	if err != nil {
		return err
	}
	out.set("dataplane.settable_us", nsPerOp(setTable, hot)/1e3)

	var scrapes []float64
	for i := 0; i < 7; i++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, rig.scrapeURL(), nil)
		if err != nil {
			return err
		}
		start := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			return fmt.Errorf("scrape: %w", err)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || n == 0 {
			return fmt.Errorf("scrape: status %d, %d bytes", resp.StatusCode, n)
		}
		scrapes = append(scrapes, ms(time.Since(start)))
	}
	out.set("obs.scrape_ms", median(scrapes))
	return nil
}
