package controlplane

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/dataplane"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// renewStaleAfter is the rule TTL of the renewal rig's proxies.
const renewStaleAfter = 3 * time.Second

// renewRig is one unreplicated global and two cluster controllers over
// loopback, each cluster with one in-process proxy on a virtual clock,
// and a count of the patch requests each cluster is sent.
type renewRig struct {
	t       *testing.T
	g       *Global
	clk     *testClock
	ids     []topology.ClusterID
	ccs     []*Cluster
	proxies []*dataplane.Proxy
	patches []atomic.Int64
	// handlers serve each cluster's URL: a restart swaps one in place.
	mu       sync.Mutex
	handlers []http.Handler
	urls     []string
	answers  []*answerLog
	gURL     string
}

func newRenewRig(t *testing.T) *renewRig {
	t.Helper()
	g, gsrv := newGlobalServer(t)
	r := &renewRig{t: t, g: g, clk: newTestClock(), ids: []topology.ClusterID{topology.West, topology.East}, gURL: gsrv.URL}
	n := len(r.ids)
	r.patches, r.handlers = make([]atomic.Int64, n), make([]http.Handler, n)
	r.ccs, r.proxies, r.answers = make([]*Cluster, n), make([]*dataplane.Proxy, n), make([]*answerLog, n)
	for i := range r.ids {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path == "/v1/patch" {
				r.patches[i].Add(1)
			}
			r.mu.Lock()
			h := r.handlers[i]
			r.mu.Unlock()
			h.ServeHTTP(w, req)
		}))
		t.Cleanup(srv.Close)
		r.urls = append(r.urls, srv.URL)
		r.start(i)
	}
	return r
}

// start brings cluster i up from nothing (again, on a restart): a new
// controller and proxy behind the cluster's URL, registered with the
// global.
func (r *renewRig) start(i int) {
	r.t.Helper()
	cc := NewCluster(r.ids[i], r.gURL)
	p, err := dataplane.New(dataplane.Config{
		Service: "gateway", Cluster: r.ids[i], LocalApp: "http://127.0.0.1:1",
		Resolver:   dataplane.ResolverFunc(func(string, topology.ClusterID) (string, error) { return "", errors.New("none") }),
		StaleAfter: renewStaleAfter,
		Now:        r.clk.Now,
	})
	if err != nil {
		r.t.Fatal(err)
	}
	cc.AddProxy(p)
	r.mu.Lock()
	r.handlers[i] = cc.Handler()
	r.mu.Unlock()
	r.ccs[i], r.proxies[i], r.answers[i] = cc, p, logAnswers(cc)
	if err := cc.Register(r.t.Context(), r.urls[i]); err != nil {
		r.t.Fatal(err)
	}
}

// report has every cluster upload one window of frontend load.
func (r *renewRig) report(westRPS, eastRPS float64) {
	r.t.Helper()
	stats := feStats(westRPS, eastRPS)
	for i, cc := range r.ccs {
		cc.Ingest(stats[i : i+1])
		if err := cc.Report(r.t.Context(), time.Second); err != nil {
			r.t.Fatalf("report %s: %v", cc.id, err)
		}
	}
}

func (r *renewRig) tick() {
	r.t.Helper()
	if err := r.g.Tick(r.t.Context()); err != nil {
		r.t.Fatalf("tick: %v", err)
	}
}

// sentPatches is how many patch requests each cluster has been sent.
func (r *renewRig) sentPatches() []int64 {
	out := make([]int64, len(r.patches))
	for i := range r.patches {
		out[i] = r.patches[i].Load()
	}
	return out
}

// answerLog is a cluster's transport that records the status of the
// last answer each replica gave its reports.
type answerLog struct {
	base http.RoundTripper
	mu   sync.Mutex
	last map[string]int // replica base URL → status
}

// logAnswers makes cc report through a new answerLog.
func logAnswers(cc *Cluster) *answerLog {
	a := &answerLog{base: NewTransport(), last: make(map[string]int)}
	cc.SetTransport(a)
	return a
}

func (a *answerLog) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := a.base.RoundTrip(req)
	if err == nil && req.URL.Path == "/v1/metrics" {
		a.mu.Lock()
		a.last["http://"+req.URL.Host] = resp.StatusCode
		a.mu.Unlock()
	}
	return resp, err
}

// answer is the status of the last report answer from the replica at url.
func (a *answerLog) answer(url string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.last[url]
}

// TestSteadyRoundSendsNoPush: once every cluster holds the published
// table, its report is answered 200, the answer renews its proxies'
// rules, and a tick that publishes the same table sends no patch. A
// tick with no report since the last round still sends the empty
// keep-alive.
func TestSteadyRoundSendsNoPush(t *testing.T) {
	r := newRenewRig(t)
	r.report(900, 100)
	r.tick()
	tab := r.g.ctrl.Table()
	for i, cc := range r.ccs {
		if got := r.answers[i].answer(r.gURL); got != http.StatusAccepted {
			t.Fatalf("%s's report before any push answered %d, want 202", cc.id, got)
		}
		if cc.Table().Version != tab.Version || r.patches[i].Load() != 1 {
			t.Fatalf("%s at table v%d after %d patch requests, want v%d after the first full push",
				cc.id, cc.Table().Version, r.patches[i].Load(), tab.Version)
		}
	}

	skips := r.g.mPushSkips.Value()
	r.clk.Advance(2 * time.Second)
	renewals := make([]uint64, len(r.ccs))
	for i, cc := range r.ccs {
		renewals[i] = cc.mRenewals.Value()
		if age := r.proxies[i].RulesAge(); age != 2*time.Second {
			t.Fatalf("%s proxy rules age %v before its report, want 2s", cc.id, age)
		}
	}
	r.report(900, 100)
	for i, cc := range r.ccs {
		if got := r.answers[i].answer(r.gURL); got != http.StatusOK {
			t.Errorf("%s's report at the published table answered %d, want 200", cc.id, got)
		}
		if age := r.proxies[i].RulesAge(); age != 0 {
			t.Errorf("%s proxy rules age %v after its report was answered, want 0", cc.id, age)
		}
		if got := cc.mRenewals.Value() - renewals[i]; got != 1 {
			t.Errorf("%s renewed %d times on one report, want 1", cc.id, got)
		}
	}
	before := r.sentPatches()
	r.tick()
	if got := r.g.ctrl.Table(); got != tab {
		t.Fatalf("steady tick published v%d, want the same table v%d", got.Version, tab.Version)
	}
	for i, cc := range r.ccs {
		if got := r.patches[i].Load() - before[i]; got != 0 {
			t.Errorf("steady tick sent %s %d patch requests, want 0", cc.id, got)
		}
	}
	if got := r.g.mPushSkips.Value() - skips; got != uint64(len(r.ccs)) {
		t.Errorf("steady tick skipped %d pushes, want %d", got, len(r.ccs))
	}

	// No report since that round: the next one sends the keep-alive.
	r.clk.Advance(2 * time.Second)
	before = r.sentPatches()
	r.tick()
	for i, cc := range r.ccs {
		if got := r.patches[i].Load() - before[i]; got != 1 {
			t.Errorf("tick after no report sent %s %d patch requests, want the keep-alive", cc.id, got)
		}
		if age := r.proxies[i].RulesAge(); age != 0 {
			t.Errorf("%s proxy rules age %v after the keep-alive, want 0", cc.id, age)
		}
	}
}

// TestRestartedClusterIsResynced: a cluster controller that restarts
// holds version 0, so its report gets 202 and renews nothing, and the
// next round's keep-alive meets a version gap and resyncs it in full.
func TestRestartedClusterIsResynced(t *testing.T) {
	r := newRenewRig(t)
	for range 2 {
		r.report(900, 100)
		r.tick()
	}
	tab := r.g.ctrl.Table()

	r.start(0)
	west := r.ccs[0]
	renewals := west.mRenewals.Value()
	resyncs := r.g.mResyncs.With(string(west.id)).Value()
	r.report(900, 100)
	if got := r.answers[0].answer(r.gURL); got != http.StatusAccepted {
		t.Fatalf("restarted cluster's report answered %d, want 202", got)
	}
	if got := west.mRenewals.Value() - renewals; got != 0 {
		t.Fatalf("restarted cluster renewed %d times, want 0", got)
	}
	r.tick()
	if got := r.g.mResyncs.With(string(west.id)).Value() - resyncs; got != 1 {
		t.Fatalf("%d full resyncs of the restarted cluster, want 1", got)
	}
	if got := west.Table(); got.Version != tab.Version || !routing.Equal(got, tab.Restrict(west.id)) {
		t.Fatalf("restarted cluster at v%d after the round, want west's slice of v%d", got.Version, tab.Version)
	}
	if got := r.proxies[0].TableVersion(); got != tab.Version {
		t.Fatalf("restarted cluster's proxy at v%d, want v%d", got, tab.Version)
	}
}

// failPatches fails every patch request to one host and passes the rest.
type failPatches struct {
	host string
	base http.RoundTripper
}

func (f *failPatches) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Host == f.host && req.URL.Path == "/v1/patch" {
		return nil, errors.New("patch path down")
	}
	return f.base.RoundTrip(req)
}

// TestFailedPushLeavesRulesAging: pushes to west fail while its reports
// get through. Once a new table is published, west's reports are
// answered 202, so nothing renews its proxy's rules: they age past
// StaleAfter to the local fallback, while east's keep being renewed.
func TestFailedPushLeavesRulesAging(t *testing.T) {
	r := newRenewRig(t)
	r.report(900, 100)
	r.tick()
	first := r.g.ctrl.Table()
	r.g.SetTransport(&failPatches{host: strings.TrimPrefix(r.urls[0], "http://"), base: NewTransport()})

	r.report(100, 900)
	if err := r.g.Tick(t.Context()); err == nil {
		t.Fatal("tick with west's pushes failing reported no error")
	}
	if r.g.ctrl.Table() == first {
		t.Fatal("flipped demand published no new table")
	}
	west, east := r.ccs[0], r.ccs[1]
	renewals := west.mRenewals.Value()
	for period := 1; period <= 4; period++ {
		r.clk.Advance(time.Second)
		r.report(100, 900)
		if got := r.answers[0].answer(r.gURL); got != http.StatusAccepted {
			t.Fatalf("period %d: west's report at the superseded table answered %d, want 202", period, got)
		}
		if got := r.answers[1].answer(r.gURL); got != http.StatusOK {
			t.Fatalf("period %d: east's report answered %d, want 200", period, got)
		}
		r.g.Tick(t.Context()) // west's push fails again
		if age := r.proxies[0].RulesAge(); age != time.Duration(period)*time.Second {
			t.Fatalf("period %d: west proxy rules age %v, want %v", period, age, time.Duration(period)*time.Second)
		}
		if age := r.proxies[1].RulesAge(); age != 0 {
			t.Fatalf("period %d: east proxy rules age %v, want 0", period, age)
		}
	}
	if got := west.mRenewals.Value() - renewals; got != 0 {
		t.Fatalf("west renewed %d times on a table it does not run", got)
	}
	if west.Table().Version != first.Version {
		t.Fatalf("west at v%d, want still v%d", west.Table().Version, first.Version)
	}
	if east.Table().Version != r.g.ctrl.Table().Version {
		t.Fatalf("east at v%d, want the published v%d", east.Table().Version, r.g.ctrl.Table().Version)
	}
	if r.proxies[0].DegradationLevel() != 2 || r.proxies[1].DegradationLevel() != 0 {
		t.Fatalf("degradation west %d east %d, want 2 and 0",
			r.proxies[0].DegradationLevel(), r.proxies[1].DegradationLevel())
	}
}

// TestOnlyTheFencedPublisherRenews: only the replica whose newest push
// a cluster runs, at the epoch it fenced, answers its report 200. A
// follower answers 202, and so does a leader once it steps down. A
// cluster fenced to a higher epoch gets 202 from the old leader, whose
// next push is refused stale-leader and steps it down.
func TestOnlyTheFencedPublisherRenews(t *testing.T) {
	const ttl = 10 * time.Second
	// setup elects r0 of two replicas, which pushes once; the second
	// report round is then answered by both.
	setup := func(t *testing.T) (*haRig, []*answerLog) {
		rig := newHARig(t, 2, ttl)
		var logs []*answerLog
		for _, cc := range rig.clusters {
			logs = append(logs, logAnswers(cc))
		}
		rig.report(900, 100)
		rig.step(nil)
		if !rig.reps[0].g.IsLeader() || rig.reps[1].g.IsLeader() {
			t.Fatal("want r0 leader, r1 follower")
		}
		return rig, logs
	}
	// want checks the answers of one report round and that it renewed
	// no cluster's rules unless the leader answered 200.
	want := func(t *testing.T, rig *haRig, logs []*answerLog, leader, follower int) {
		t.Helper()
		var renewals []uint64
		for _, cc := range rig.clusters {
			renewals = append(renewals, cc.mRenewals.Value())
		}
		rig.report(900, 100)
		for i, cc := range rig.clusters {
			r0, r1 := logs[i].answer(rig.reps[0].srv.URL), logs[i].answer(rig.reps[1].srv.URL)
			if r0 != leader || r1 != follower {
				t.Errorf("%s's report answered %d by r0 and %d by r1, want %d and %d", cc.id, r0, r1, leader, follower)
			}
			renewed := uint64(0)
			if leader == http.StatusOK {
				renewed = 1
			}
			if got := cc.mRenewals.Value() - renewals[i]; got != renewed {
				t.Errorf("%s renewed %d times, want %d", cc.id, got, renewed)
			}
		}
	}
	t.Run("follower-and-step-down", func(t *testing.T) {
		rig, logs := setup(t)
		want(t, rig, logs, http.StatusOK, http.StatusAccepted)
		rig.reps[0].g.stepDown("test")
		want(t, rig, logs, http.StatusAccepted, http.StatusAccepted)
	})
	t.Run("fenced-past-the-leader", func(t *testing.T) {
		rig, logs := setup(t)
		r0 := rig.reps[0].g
		// r0 goes quiet past its lease; a rival takes every acceptor's
		// vote at epoch 5, which fences the clusters there.
		rig.clk.Advance(ttl + time.Second)
		for _, u := range rig.ccURLs {
			resp := postJSONReq(t, u+"/v1/lease", LeaseRequest{Candidate: "http://rival.invalid", Epoch: 5, TTLMS: ttl.Milliseconds()})
			drain(resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("rival's lease request = %d", resp.StatusCode)
			}
		}
		for _, cc := range rig.clusters {
			if got := cc.health().PubEpoch; got != 5 {
				t.Fatalf("%s fenced at epoch %d, want 5", cc.id, got)
			}
		}
		want(t, rig, logs, http.StatusAccepted, http.StatusAccepted)
		err := r0.Tick(t.Context())
		if err == nil || !strings.Contains(err.Error(), rejectStaleLeader) {
			t.Fatalf("old leader's push error = %v, want a stale-leader refusal", err)
		}
		if r0.IsLeader() {
			t.Fatal("old leader still leads after the stale-leader refusal")
		}
	})
}
