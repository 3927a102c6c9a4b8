package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// Reference implementations: the map-based ingest fold and snapshotIngest
// of commit fa64b4b, kept verbatim (minus HTTP and metrics) as what the
// sorted-window ingest must reproduce element for element. Their groups
// are in the order of the sixteen FNV-hashed lock stripes the ingest had
// until it took one lock (ingestStripes, refStripe), and the live merge
// must equal telemetry.Merge of them.

func lessMetricKey(a, b telemetry.MetricKey) bool {
	if a.Service != b.Service {
		return a.Service < b.Service
	}
	if a.Class != b.Class {
		return a.Class < b.Class
	}
	return a.Cluster < b.Cluster
}

type refClusterIngest struct {
	epoch    uint64
	stats    map[telemetry.MetricKey]telemetry.WindowStats
	reported bool
}

// ingestStripes is the number of lock stripes the ingest was sharded
// over until it took one lock.
const ingestStripes = 16

// refGlobal is the ingest state of the reference, striped like the
// parent's live one so that its group order is the parent's.
type refGlobal struct {
	stripes [ingestStripes]map[topology.ClusterID]*refClusterIngest
}

func newRefGlobal() *refGlobal {
	r := &refGlobal{}
	for i := range r.stripes {
		r.stripes[i] = make(map[topology.ClusterID]*refClusterIngest)
	}
	return r
}

// refStripe is the index of the lock stripe that owned a cluster's
// telemetry while the ingest was striped (the striped Global's stripe).
func refStripe(c topology.ClusterID) int {
	h := fnv.New32a()
	h.Write([]byte(c))
	return int(h.Sum32() % ingestStripes)
}

// handle is the parent's handleMetrics from the epoch check on; it
// returns the status the parent answered.
func (r *refGlobal) handle(stripe int, rep MetricsReport) int {
	st := r.stripes[stripe]
	ci := st[rep.Cluster]
	if rep.Delta {
		if ci == nil || rep.Epoch != ci.epoch+1 {
			return http.StatusConflict
		}
		for _, ws := range rep.Stats {
			ci.stats[ws.Key] = ws
		}
		for _, k := range rep.Removed {
			delete(ci.stats, k)
		}
		ci.epoch = rep.Epoch
	} else {
		next := &refClusterIngest{
			epoch: rep.Epoch,
			stats: make(map[telemetry.MetricKey]telemetry.WindowStats, len(rep.Stats)),
		}
		for _, ws := range rep.Stats {
			next.stats[ws.Key] = ws
		}
		if ci != nil {
			next.reported = ci.reported
		}
		st[rep.Cluster] = next
		ci = next
	}
	ci.reported = true
	return http.StatusAccepted
}

// window is a cluster's reconstructed window in key order.
func (ci *refClusterIngest) window() []telemetry.WindowStats {
	keys := make([]telemetry.MetricKey, 0, len(ci.stats))
	for k := range ci.stats {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return lessMetricKey(keys[a], keys[b]) })
	group := make([]telemetry.WindowStats, 0, len(keys))
	for _, k := range keys {
		group = append(group, ci.stats[k])
	}
	return group
}

// snapshotIngest is the parent's.
func (r *refGlobal) snapshotIngest() [][]telemetry.WindowStats {
	var groups [][]telemetry.WindowStats
	for _, st := range r.stripes {
		ids := make([]topology.ClusterID, 0, len(st))
		for id := range st {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for _, id := range ids {
			ci := st[id]
			if !ci.reported {
				continue
			}
			ci.reported = false
			groups = append(groups, ci.window())
		}
	}
	return groups
}

// liveIngest returns the live global's state for one cluster (nil if it
// never reported).
func liveIngest(g *Global, c topology.ClusterID) *clusterIngest {
	g.ingestMu.Lock()
	defer g.ingestMu.Unlock()
	for _, ci := range g.ingest {
		if ci.id == c {
			return ci
		}
	}
	return nil
}

// checkWindow asserts the live reconstructed window of one cluster has
// unique keys in lessMetricKey order and equals the reference fold.
func checkWindow(t *testing.T, g *Global, ref *refGlobal, c topology.ClusterID) {
	t.Helper()
	live, want := liveIngest(g, c), ref.stripes[refStripe(c)][c]
	if (live == nil) != (want == nil) {
		t.Fatalf("cluster %q: live state %v, reference %v", c, live != nil, want != nil)
	}
	if live == nil {
		return
	}
	for i := 1; i < len(live.stats); i++ {
		if !lessMetricKey(live.stats[i-1].Key, live.stats[i].Key) {
			t.Fatalf("cluster %q: window not in strict key order at %d: %v then %v", c, i, live.stats[i-1].Key, live.stats[i].Key)
		}
	}
	if w := want.window(); !sameWindow(w, live.stats) {
		t.Fatalf("cluster %q: window differs from the reference fold:\nlive %v\nref  %v", c, live.stats, w)
	}
	if live.epoch != want.epoch || live.reported != want.reported {
		t.Fatalf("cluster %q: epoch/reported = %d/%v, reference %d/%v",
			c, live.epoch, live.reported, want.epoch, want.reported)
	}
}

// sameWindow compares element for element (an empty window equals a nil one).
func sameWindow(a, b []telemetry.WindowStats) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// sameBits compares element for element, the rate by its bits.
func sameBits(a, b []telemetry.WindowStats) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(x.RPS) != math.Float64bits(y.RPS) {
			return false
		}
		x.RPS, y.RPS = 0, 0
		if x != y {
			return false
		}
	}
	return true
}

func postMetrics(h http.Handler, body []byte) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/metrics", bytes.NewReader(body)))
	return rec.Code
}

// TestSteadyPathMatchesFullRecompute drives randomized report sequences
// — full and delta, in key order and shuffled, with duplicated, new and
// removed keys, epoch gaps, and ticks in between — through the live
// ingest and the map-based reference: after every report the cluster's
// reconstructed window and epoch are equal bit for bit, and every merge
// a tick takes equals telemetry.Merge of the groups the reference's
// snapshotIngest hands out, in its striped order, bit for bit.
func TestSteadyPathMatchesFullRecompute(t *testing.T) {
	clusters := []topology.ClusterID{"west", "east", "zeta", "alpha", "c07", "c11", "c23"}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, _ := newGlobalServer(t)
		h := g.Handler()
		ref := newRefGlobal()
		epochs := map[topology.ClusterID]uint64{}
		randStat := func(c topology.ClusterID) telemetry.WindowStats {
			return telemetry.WindowStats{
				Key: telemetry.MetricKey{
					Service: []string{"gateway", "svc-1", "svc-2", "db"}[rng.Intn(4)],
					Class:   []string{"a", "b", "default"}[rng.Intn(3)],
					Cluster: string(c),
				},
				Window:      time.Second,
				Requests:    uint64(rng.Intn(1000)),
				RPS:         rng.Float64() * 1000,
				MeanLatency: time.Duration(rng.Intn(1e7)),
			}
		}
		for step := 0; step < 400; step++ {
			c := clusters[rng.Intn(len(clusters))]
			rep := MetricsReport{Cluster: c, WindowMS: 1000}
			for n := rng.Intn(10); n > 0; n-- {
				rep.Stats = append(rep.Stats, randStat(c))
			}
			if rng.Intn(3) == 0 {
				// What a cluster controller sends: key order, no duplicates.
				rep.Stats = telemetry.Merge(rep.Stats)
			}
			switch rng.Intn(8) {
			case 0: // full resync
				rep.Epoch = epochs[c] + uint64(rng.Intn(3))
			case 1: // delta with an epoch gap
				rep.Delta, rep.Epoch = true, epochs[c]+2
			default:
				rep.Delta, rep.Epoch = true, epochs[c]+1
				for n := rng.Intn(3); n > 0; n-- {
					rep.Removed = append(rep.Removed, randStat(c).Key)
				}
			}
			body, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			code := postMetrics(h, body)
			if want := ref.handle(refStripe(c), rep); code != want {
				t.Fatalf("seed %d step %d: status %d, reference %d", seed, step, code, want)
			}
			if code == http.StatusAccepted {
				epochs[c] = rep.Epoch
			}
			checkWindow(t, g, ref, c)
			if rng.Intn(12) == 0 {
				live, window := g.mergeIngest()
				want := telemetry.Merge(ref.snapshotIngest()...)
				if !sameBits(live, want) || window != time.Second {
					t.Fatalf("seed %d step %d: the tick's merge differs:\nlive %v over %v\nref  %v over 1s", seed, step, live, window, want)
				}
			}
		}
	}
}

// TestHandleMetricsRejectsOutOfRange: a report with a negative rate,
// without a cluster, or with a stat keyed to another cluster is refused
// whole with 400 and counted, the cluster's previous window stays, and
// the next good report is accepted — the control loop keeps ticking
// throughout instead of failing on negative demand until the key is
// re-reported, and no cluster adds to another's demand.
func TestHandleMetricsRejectsOutOfRange(t *testing.T) {
	g, srv := newGlobalServer(t)
	post := func(rep MetricsReport) int {
		t.Helper()
		resp := postJSONReq(t, srv.URL+"/v1/metrics", rep)
		drain(resp)
		return resp.StatusCode
	}
	tick := func() {
		t.Helper()
		if err := g.Tick(t.Context()); err != nil {
			t.Fatalf("tick: %v", err)
		}
	}
	west := func(rps float64) []telemetry.WindowStats { return feStats(rps, 0)[:1] }
	if code := post(MetricsReport{Cluster: topology.West, WindowMS: 1000, Epoch: 1, Stats: west(900)}); code != http.StatusAccepted {
		t.Fatalf("good report status = %d", code)
	}
	tick()
	before := append([]telemetry.WindowStats(nil), liveIngest(g, topology.West).stats...)
	errsBefore := counterValue(t, scrape(t, srv.URL), "slate_global_report_errors_total")

	bad := west(-5)
	for _, rep := range []MetricsReport{
		{Cluster: topology.West, WindowMS: 1000, Epoch: 2, Delta: true, Stats: bad},
		{Cluster: topology.West, WindowMS: 1000, Epoch: 2, Stats: bad},
		{Cluster: "", WindowMS: 1000, Epoch: 1, Stats: west(900)},
		// West's key beside east's: east's rate would join east's demand.
		{Cluster: topology.West, WindowMS: 1000, Epoch: 2, Delta: true, Stats: feStats(900, 100)},
		{Cluster: topology.West, WindowMS: 1000, Epoch: 2, Stats: feStats(900, 100)},
	} {
		if code := post(rep); code != http.StatusBadRequest {
			t.Fatalf("report %+v: status = %d, want 400", rep, code)
		}
	}
	if got := counterValue(t, scrape(t, srv.URL), "slate_global_report_errors_total"); got != errsBefore+5 {
		t.Errorf("slate_global_report_errors_total went %d -> %d, want +5", errsBefore, got)
	}
	if ci := liveIngest(g, topology.West); ci.epoch != 1 || !reflect.DeepEqual(ci.stats, before) {
		t.Errorf("rejected reports changed west's window: epoch %d, %v (was %v)", ci.epoch, ci.stats, before)
	}
	if liveIngest(g, "") != nil {
		t.Error(`a report without a cluster created ingest state under ""`)
	}
	tick() // an empty window: demand decays, nothing fails

	// The rejected delta consumed no epoch: the next good delta is 2.
	if code := post(MetricsReport{Cluster: topology.West, WindowMS: 1000, Epoch: 2, Delta: true, Stats: west(800)}); code != http.StatusAccepted {
		t.Fatalf("recovery report status = %d", code)
	}
	tick()
	if rps := liveIngest(g, topology.West).stats[0].RPS; rps != 800 { //slate:nolint floatcmp -- copied verbatim, not computed
		t.Errorf("west's gateway rate after recovery = %v, want 800", rps)
	}
}

// TestRefusedReportKeepsWindowLength: only an accepted report sets the
// window length a tick plans over. A delta refused for an epoch gap
// used to set it anyway, before its epoch was checked.
func TestRefusedReportKeepsWindowLength(t *testing.T) {
	g, srv := newGlobalServer(t)
	post := func(rep MetricsReport) int {
		t.Helper()
		resp := postJSONReq(t, srv.URL+"/v1/metrics", rep)
		drain(resp)
		return resp.StatusCode
	}
	west := feStats(900, 0)[:1]
	if code := post(MetricsReport{Cluster: topology.West, WindowMS: 5000, Epoch: 1, Stats: west}); code != http.StatusAccepted {
		t.Fatalf("full report status = %d", code)
	}
	if code := post(MetricsReport{Cluster: topology.West, WindowMS: 7000, Epoch: 3, Delta: true, Stats: west}); code != http.StatusConflict {
		t.Fatalf("gapped delta status = %d, want 409", code)
	}
	if err := g.Tick(t.Context()); err != nil {
		t.Fatal(err)
	}
	if g.window != 5*time.Second {
		t.Fatalf("the tick after a refused 7 s report plans over %v, want the accepted 5 s", g.window)
	}
}

// TestPendingReportsGauge: slate_global_pending_reports reads exactly
// the number of clusters that reported since the last tick merged them.
// A cluster's second report does not count again, a refused one not at
// all, and a tick clears the count.
func TestPendingReportsGauge(t *testing.T) {
	g, srv := newGlobalServer(t)
	post := func(c topology.ClusterID, epoch uint64, delta bool, rps float64, want int) {
		t.Helper()
		stats := []telemetry.WindowStats{{Key: telemetry.MetricKey{Service: "gateway", Class: "default", Cluster: string(c)}, RPS: rps}}
		resp := postJSONReq(t, srv.URL+"/v1/metrics", MetricsReport{Cluster: c, WindowMS: 1000, Epoch: epoch, Delta: delta, Stats: stats})
		drain(resp)
		if resp.StatusCode != want {
			t.Fatalf("%s report at epoch %d: status %d, want %d", c, epoch, resp.StatusCode, want)
		}
	}
	check := func(want int) {
		t.Helper()
		if got := g.mStaleGroups.Value(); int(got) != want {
			t.Fatalf("slate_global_pending_reports = %v, want %d", got, want)
		}
	}
	tick := func() {
		t.Helper()
		if err := g.Tick(t.Context()); err != nil {
			t.Fatal(err)
		}
	}
	post(topology.West, 1, false, 900, http.StatusAccepted)
	check(1)
	post(topology.West, 2, true, 800, http.StatusAccepted)
	check(1)
	post(topology.East, 1, false, 100, http.StatusAccepted)
	post("zeta", 1, false, 10, http.StatusAccepted)
	check(3)
	post(topology.East, 5, true, 100, http.StatusConflict)
	post(topology.East, 2, true, -1, http.StatusBadRequest)
	check(3)
	tick()
	check(0)
	post(topology.East, 2, true, 120, http.StatusAccepted)
	check(1)
	tick()
	check(0)
	tick()
	check(0)
}

// TestDiscardedGlobalIsCollectedAtOnce: a Global that has ingested
// reports and ticked is garbage at the first collection after its last
// reference is dropped. A sync.Pool inside the struct broke that — the
// runtime lists used pools until their second idle collection, and the
// list entry is an interior pointer — which kept a torn-down control
// plane (controller, formulation, windows) alive under the next one.
func TestDiscardedGlobalIsCollectedAtOnce(t *testing.T) {
	freed := make(chan struct{})
	useAndDrop := func() {
		top := topology.TwoClusters(40 * time.Millisecond)
		ctrl, err := core.NewController(top, chainApp(), core.ControllerConfig{DemandSmoothing: 1})
		if err != nil {
			t.Fatal(err)
		}
		g := NewGlobal(ctrl)
		runtime.SetFinalizer(g, func(*Global) { close(freed) })
		body, err := json.Marshal(MetricsReport{Cluster: topology.West, WindowMS: 1000, Epoch: 1, Stats: feStats(900, 100)[:1]})
		if err != nil {
			t.Fatal(err)
		}
		if code := postMetrics(g.Handler(), body); code != http.StatusAccepted {
			t.Fatalf("report status = %d", code)
		}
		if err := g.Tick(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	useAndDrop()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("a discarded Global survived a full collection: something global still points into it")
	}
}
