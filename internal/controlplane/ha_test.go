package controlplane

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/appgraph"
	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/fault"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// vclock is a shared virtual clock: lease expiry is the only
// time-dependent part of the protocol, so advancing it deterministically
// scripts elections without sleeping.
type vclock struct {
	mu sync.Mutex
	t  time.Time
}

// leaderURL returns the best known leader address: g itself when
// leading, otherwise the holder reported by the lease acceptors ("" if
// unknown).
func leaderURL(g *Global) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.haEnabled || g.isLeader {
		return g.replica
	}
	return g.leaderURL
}

// leaseEpoch returns g's current lease epoch (0 before any campaign).
func leaseEpoch(g *Global) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.leaseEpoch
}

func newVclock() *vclock {
	return &vclock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (v *vclock) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.t
}

func (v *vclock) Advance(d time.Duration) {
	v.mu.Lock()
	v.t = v.t.Add(d)
	v.mu.Unlock()
}

// starApp2 is a two-class star application whose classes own disjoint
// call subtrees behind a shared gateway, so a decomposed controller
// splits it into two independent shards — one per class.
func starApp2() *appgraph.App {
	clusters := []topology.ClusterID{topology.West, topology.East}
	app := &appgraph.App{Name: "star2", Services: map[appgraph.ServiceID]*appgraph.Service{}}
	const gateway appgraph.ServiceID = "gateway"
	front := appgraph.ReplicaPool{Replicas: 2, Concurrency: 64}
	pool := appgraph.ReplicaPool{Replicas: 2, Concurrency: 4}
	app.Services[gateway] = &appgraph.Service{ID: gateway, Placement: appgraph.Uniform(front, clusters...)}
	work := appgraph.Work{MeanServiceTime: 10 * time.Millisecond, RequestBytes: 1 << 10, ResponseBytes: 4 << 10}
	for _, name := range []string{"ca", "cb"} {
		svc := appgraph.ServiceID("svc-" + name)
		app.Services[svc] = &appgraph.Service{ID: svc, Placement: appgraph.Uniform(pool, clusters...)}
		app.Classes = append(app.Classes, &appgraph.Class{Name: name, Root: &appgraph.CallNode{
			Service: gateway, Method: "POST", Path: "/" + name,
			Work:  appgraph.Work{MeanServiceTime: 100 * time.Microsecond},
			Count: 1,
			Children: []*appgraph.CallNode{{
				Service: svc, Method: "POST", Path: "/work", Work: work, Count: 1,
			}},
		}})
	}
	return app
}

// haReplica is one replicated global controller under test.
type haReplica struct {
	g    *Global
	ctrl *core.Controller
	srv  *httptest.Server
}

// haRig is a replicated control plane on virtual time: n global
// replicas, two cluster controllers reporting to all of them.
type haRig struct {
	t        *testing.T
	clk      *vclock
	reps     []*haReplica
	clusters []*Cluster
	ccURLs   []string
}

func newHARig(t *testing.T, n int, cfg HAConfig) *haRig {
	t.Helper()
	rig := &haRig{t: t, clk: newVclock()}
	top := topology.TwoClusters(40 * time.Millisecond)
	for i := 0; i < n; i++ {
		ctrl, err := core.NewController(top, chainApp(), core.ControllerConfig{
			DemandSmoothing: 1, Decompose: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		g := NewGlobal(ctrl)
		srv := httptest.NewServer(g.Handler())
		t.Cleanup(srv.Close)
		g.EnableHA(srv.URL, cfg)
		g.SetNow(rig.clk.Now)
		rig.reps = append(rig.reps, &haReplica{g: g, ctrl: ctrl, srv: srv})
	}
	for _, id := range []topology.ClusterID{topology.West, topology.East} {
		cc := NewCluster(id, "")
		cc.SetNow(rig.clk.Now)
		for _, r := range rig.reps {
			cc.AddUpstream(r.srv.URL)
		}
		srv := httptest.NewServer(cc.Handler())
		t.Cleanup(srv.Close)
		if err := cc.Register(t.Context(), srv.URL); err != nil {
			t.Fatal(err)
		}
		rig.clusters = append(rig.clusters, cc)
		rig.ccURLs = append(rig.ccURLs, srv.URL)
	}
	return rig
}

// report ingests one telemetry window (west/east gateway RPS for the
// chain app's single class) and uploads it to every replica.
func (r *haRig) report(westRPS, eastRPS float64) {
	r.t.Helper()
	for i, rps := range []float64{westRPS, eastRPS} {
		cc := r.clusters[i]
		cc.Ingest([]telemetry.WindowStats{{
			Key:      telemetry.MetricKey{Service: "gateway", Class: "default", Cluster: string(cc.id)},
			RPS:      rps,
			Requests: uint64(rps),
			Window:   time.Second,
		}})
		if err := cc.Report(r.t.Context(), time.Second); err != nil {
			r.t.Fatalf("report %s: %v", cc.id, err)
		}
	}
}

// step runs one HAStep on every live replica, in replica-ID order.
func (r *haRig) step(dead map[int]bool) {
	r.t.Helper()
	for i, rep := range r.reps {
		if dead[i] {
			continue
		}
		rep.g.HAStep(r.t.Context()) // push errors surface via lastErr
	}
}

func getJSON[T any](t *testing.T, url string) T {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestLeaderElectionAndFailover walks the replicated control plane
// through its whole life cycle on virtual time: first election, steady
// leadership with followers caching warm snapshots, leader death and
// takeover by a follower that resumes WARM from the cached snapshot,
// and the deposed leader's zombie publish bouncing off the fence.
func TestLeaderElectionAndFailover(t *testing.T) {
	const ttl = 10 * time.Second
	rig := newHARig(t, 3, HAConfig{LeaseTTL: ttl, EventThreshold: -1})
	r0, r1, r2 := rig.reps[0], rig.reps[1], rig.reps[2]

	// Round 1: the first replica to campaign wins epoch 1; rivals learn
	// the holder from their denials and cache its snapshot.
	rig.report(900, 100)
	rig.step(nil)
	if !r0.g.IsLeader() || r1.g.IsLeader() || r2.g.IsLeader() {
		t.Fatalf("want r0 sole leader; got %v %v %v",
			r0.g.IsLeader(), r1.g.IsLeader(), r2.g.IsLeader())
	}
	if got := leaderURL(r1.g); got != r0.srv.URL {
		t.Fatalf("r1 leader URL = %q, want %q", got, r0.srv.URL)
	}
	for _, u := range rig.ccURLs {
		h := getJSON[Health](t, u+"/v1/health")
		if h.LeaderURL != r0.srv.URL || h.LeaderEpoch != 1 || h.PubEpoch != 1 {
			t.Fatalf("cluster health %+v, want r0 at epoch 1", h)
		}
	}
	gh := getJSON[GlobalHealth](t, r0.srv.URL+"/v1/health")
	if gh.Role != "leader" || gh.LeaseEpoch != 1 {
		t.Fatalf("r0 health %+v, want leader at epoch 1", gh)
	}
	if gh := getJSON[GlobalHealth](t, r1.srv.URL+"/v1/health"); gh.Role != "follower" {
		t.Fatalf("r1 health %+v, want follower", gh)
	}

	// Rounds 2-3: steady state. The leader renews inside the TTL and
	// keeps publishing; followers keep their snapshot cache fresh.
	for i := 0; i < 2; i++ {
		rig.clk.Advance(time.Second)
		rig.report(900, 100)
		rig.step(nil)
	}
	if !r0.g.IsLeader() {
		t.Fatal("r0 lost leadership while renewing inside the TTL")
	}
	vBefore := rig.clusters[0].Table().Version
	if vBefore == 0 {
		t.Fatal("leader never published a table")
	}
	if r1.g.mSnapFetches.Value() == 0 {
		t.Fatal("follower r1 never cached a leader snapshot")
	}

	// Kill r0 and let its lease lapse. The next replica in ID order
	// campaigns with a higher epoch, wins the majority, and must resume
	// from the cached snapshot: its very first tick may not pay a single
	// cold solve — that is the entire point of warm handoff.
	patchesBefore := []uint64{rig.clusters[0].mPatches.Value(), rig.clusters[1].mPatches.Value()}
	rig.clk.Advance(ttl + time.Second)
	rig.report(900, 100)
	rig.step(map[int]bool{0: true})
	if !r1.g.IsLeader() {
		t.Fatal("r1 did not take over after the lease lapsed")
	}
	if r2.g.IsLeader() {
		t.Fatal("r2 must stay follower (r1 already renewed epoch 2)")
	}
	if got := leaseEpoch(r1.g); got != 2 {
		t.Fatalf("r1 lease epoch = %d, want 2", got)
	}
	if r1.g.mSnapRestores.Value() == 0 {
		t.Fatal("r1 won without restoring the cached snapshot")
	}
	if st := r1.ctrl.OptimizerStats(); st.ColdSolves != 0 {
		t.Fatalf("new leader paid %d cold solves; snapshot restore should resume warm (stats %+v)",
			st.ColdSolves, st)
	}
	// Time-to-fresh-table: within its FIRST step the new leader's publish
	// already landed on every cluster (an acknowledged patch confirms the
	// table even when the plan itself is unchanged).
	for i, cc := range rig.clusters {
		if cc.mPatches.Value() <= patchesBefore[i] {
			t.Fatalf("cluster %s got no push from the new leader", cc.id)
		}
	}
	if v := rig.clusters[0].Table().Version; v < vBefore {
		t.Fatalf("failover regressed the table: version %d -> %d", vBefore, v)
	}
	for _, u := range rig.ccURLs {
		h := getJSON[Health](t, u+"/v1/health")
		if h.LeaderURL != r1.srv.URL || h.PubEpoch != 2 {
			t.Fatalf("cluster health %+v, want r1 fenced at epoch 2", h)
		}
	}

	// r2 learns the new leader on its next step, and a small demand drift
	// under the new leader re-optimizes without ever going cold — the
	// inherited bases keep warm-starting.
	rig.clk.Advance(time.Second)
	rig.report(918, 102)
	rig.step(map[int]bool{0: true})
	if got := leaderURL(r2.g); got != r1.srv.URL {
		t.Fatalf("r2 leader URL = %q, want %q", got, r1.srv.URL)
	}
	if st := r1.ctrl.OptimizerStats(); st.ColdSolves != 0 || st.SubSolves == 0 {
		t.Fatalf("post-failover drift solve: stats %+v, want warm sub-solves and zero cold", st)
	}
	vAfter := rig.clusters[0].Table().Version

	// The deposed leader comes back believing it still leads and ticks.
	// Its push carries epoch 1 against a pubEpoch-2 fence: every cluster
	// rejects with the stale-leader marker, the push fails, and r0 steps
	// down instead of "resyncing" its stale table over the newer one.
	stepDownsBefore := r0.g.mStepDowns.Value()
	err := r0.g.Tick(t.Context())
	if err == nil {
		t.Fatal("deposed leader's publish succeeded; fence is broken")
	}
	if !strings.Contains(err.Error(), "stale-leader") {
		t.Fatalf("deposed push error = %v, want stale-leader rejection", err)
	}
	if r0.g.IsLeader() {
		t.Fatal("r0 still thinks it leads after a fencing rejection")
	}
	if r0.g.mStepDowns.Value() != stepDownsBefore+1 {
		t.Fatal("step-down metric did not increment")
	}
	if got := rig.clusters[0].Table().Version; got != vAfter {
		t.Fatalf("cluster table moved from %d to %d on a deposed push", vAfter, got)
	}
	if rig.clusters[0].mStaleRejects.Value() == 0 {
		t.Fatal("cluster never counted the stale rejection")
	}

	// The deposed replica rejoins as a follower and, with the lease held
	// by r1, cannot win it back until r1 actually stops renewing.
	rig.clk.Advance(time.Second)
	rig.step(nil)
	if r0.g.IsLeader() || !r1.g.IsLeader() {
		t.Fatal("rejoined r0 displaced a live leader")
	}
	if got := leaderURL(r0.g); got != r1.srv.URL {
		t.Fatalf("rejoined r0 leader URL = %q, want %q", got, r1.srv.URL)
	}
}

// TestTickErrorMetricAcrossFaultSchedule is the regression test for the
// Tick accounting fix: a tick whose PUSH fails is still a failed tick,
// so slate_global_tick_errors_total must rise on every early-return
// path, not only on optimizer errors. It drives a tick per window
// against a cluster controller taken down by a fault schedule and
// checks the error counter matches the schedule exactly.
func TestTickErrorMetricAcrossFaultSchedule(t *testing.T) {
	g, gsrv := newGlobalServer(t)
	cc := NewCluster(topology.West, gsrv.URL)
	ccsrv := httptest.NewServer(cc.Handler())
	t.Cleanup(ccsrv.Close)
	if err := cc.Register(t.Context(), ccsrv.URL); err != nil {
		t.Fatal(err)
	}

	// Outage windows 2..4 of a 7-window run: the schedule is the oracle,
	// and each window crashes or restarts the cluster through the fault
	// injector so the failure is a real transport error on the push path.
	target := fault.ClusterTarget(topology.West)
	sched := fault.NewSchedule().Outage(target, 2*time.Second, 3*time.Second)
	inj := fault.NewInjector()
	hosts := fault.NewHostMap()
	hosts.Register(strings.TrimPrefix(ccsrv.URL, "http://"), target)
	g.SetTransport(fault.NewTransport(http.DefaultTransport, inj, fault.Global, hosts))

	ticksBefore := g.mTicks.Value()
	errsBefore := g.mTickErrs.Value()
	pushErrsBefore := g.mPushErrs.Value()
	var wantErrs uint64
	for w := 0; w < 7; w++ {
		now := time.Duration(w) * time.Second
		down := sched.DownAt(target, now)
		if down {
			inj.Crash(target)
		} else {
			inj.Restart(target)
		}
		err := g.Tick(t.Context())
		if down != (err != nil) {
			t.Fatalf("window %d: down=%v but tick error=%v", w, down, err)
		}
		if err != nil {
			wantErrs++
		}
		if got := g.mTickErrs.Value() - errsBefore; got != wantErrs {
			t.Fatalf("window %d: tick errors = %d, want %d", w, got, wantErrs)
		}
	}
	if wantErrs != 3 {
		t.Fatalf("schedule produced %d failed ticks, want 3", wantErrs)
	}
	if got := g.mTicks.Value() - ticksBefore; got != 7 {
		t.Fatalf("ticks = %d, want 7 (failed ticks still count)", got)
	}
	if got := g.mPushErrs.Value() - pushErrsBefore; got != 3 {
		t.Fatalf("push errors = %d, want 3", got)
	}
}

// TestFailoverWithStaleFormatSnapshot covers a rolling upgrade: the
// follower's cached snapshot is in the previous encoding (format 1).
// On winning the lease it must reject the snapshot, start cold, and
// still land a valid table on every cluster within two control periods
// — demand drifts beforehand so the clusters hold a table well past
// version 1, which a leader counting from zero could not replace (the
// CAS fence refuses version regressions).
func TestFailoverWithStaleFormatSnapshot(t *testing.T) {
	const ttl = 10 * time.Second
	rig := newHARig(t, 2, HAConfig{LeaseTTL: ttl, EventThreshold: -1})
	r0, r1 := rig.reps[0], rig.reps[1]
	for i := 0; i < 3; i++ {
		rig.report(900-200*float64(i), 100)
		rig.step(nil)
		rig.clk.Advance(time.Second)
	}
	if !r0.g.IsLeader() || r1.g.IsLeader() {
		t.Fatal("want r0 leader, r1 follower")
	}
	vBefore := rig.clusters[0].Table().Version
	if vBefore < 2 {
		t.Fatalf("cluster table at v%d before failover, want drift to have moved it past 1", vBefore)
	}
	r1.g.mu.Lock()
	if r1.g.snapCache == nil {
		r1.g.mu.Unlock()
		t.Fatal("follower never cached a leader snapshot")
	}
	r1.g.snapCache.Format = 1
	r1.g.mu.Unlock()

	restoresBefore := r1.g.mSnapRestores.Value()
	rig.clk.Advance(ttl + time.Second)
	dead := map[int]bool{0: true}
	for period := 1; ; period++ {
		patchesBefore := []uint64{rig.clusters[0].mPatches.Value(), rig.clusters[1].mPatches.Value()}
		rig.report(900, 100)
		rig.step(dead)
		fresh := true
		for i, cc := range rig.clusters {
			fresh = fresh && cc.mPatches.Value() > patchesBefore[i]
		}
		if fresh {
			break
		}
		if period == 2 {
			t.Fatalf("no fresh table on every cluster within two periods (r1 status %+v)",
				getJSON[GlobalHealth](t, r1.srv.URL+"/v1/health"))
		}
		rig.clk.Advance(time.Second)
	}
	if !r1.g.IsLeader() {
		t.Fatal("r1 did not take over after the lease lapsed")
	}
	if got := r1.g.mSnapRestores.Value(); got != restoresBefore {
		t.Fatalf("format-1 snapshot was restored (%d restores)", got-restoresBefore)
	}
	if st := r1.ctrl.OptimizerStats(); st.ColdSolves == 0 {
		t.Fatalf("rejected snapshot but no cold solve: warm state came from somewhere (stats %+v)", st)
	}
	for _, cc := range rig.clusters {
		tab := cc.Table()
		if err := tab.Validate(topology.TwoClusters(40 * time.Millisecond)); err != nil {
			t.Fatalf("cluster %s holds an invalid table: %v", cc.id, err)
		}
		if len(tab.Keys()) == 0 || tab.Version < vBefore {
			t.Fatalf("cluster %s holds table v%d with %d rules after failover, want rules at v%d or later",
				cc.id, tab.Version, len(tab.Keys()), vBefore)
		}
	}
}

// TestEventDrivenResolve exercises the telemetry-triggered re-solve:
// a load swing beyond the threshold arms an immediate solve, the token
// bucket bounds the rate, and shard fingerprints confine the work to
// the shards whose demand actually moved.
func TestEventDrivenResolve(t *testing.T) {
	top := topology.TwoClusters(40 * time.Millisecond)
	ctrl, err := core.NewController(top, starApp2(), core.ControllerConfig{
		DemandSmoothing: 1, Decompose: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGlobal(ctrl)
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(srv.Close)
	// No cluster controllers registered: the replica trivially holds
	// leadership (bootstrap shape), isolating the event machinery.
	g.EnableHA(srv.URL, HAConfig{EventThreshold: 0.25, EventBurst: 2})
	if err := g.HAStep(t.Context()); err != nil {
		t.Fatal(err)
	}
	if !g.IsLeader() {
		t.Fatal("single replica with no acceptors must lead")
	}

	report := func(caRPS, cbRPS float64) {
		t.Helper()
		stats := []telemetry.WindowStats{
			{Key: telemetry.MetricKey{Service: "gateway", Class: "ca", Cluster: string(topology.West)},
				RPS: caRPS, Requests: uint64(caRPS), Window: time.Second},
			{Key: telemetry.MetricKey{Service: "gateway", Class: "cb", Cluster: string(topology.West)},
				RPS: cbRPS, Requests: uint64(cbRPS), Window: time.Second},
		}
		resp := postJSONReq(t, srv.URL+"/v1/metrics", MetricsReport{
			Cluster: topology.West, WindowMS: 1000, Stats: stats,
		})
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("metrics report: status %d", resp.StatusCode)
		}
	}

	// A silent cluster stirring (0 -> nonzero) always arms.
	report(400, 400)
	if g.mEventBreaches.Value() == 0 {
		t.Fatal("0->nonzero load did not arm an event solve")
	}
	if !g.TryEventSolve(t.Context()) {
		t.Fatal("armed event solve did not run")
	}
	if g.mEventSolves.Value() != 1 {
		t.Fatalf("event solves = %d, want 1", g.mEventSolves.Value())
	}

	// An identical window is below threshold: nothing arms.
	report(400, 400)
	if g.TryEventSolve(t.Context()) {
		t.Fatal("unchanged load ran an event solve")
	}

	// One class doubles (total +50% > 25% threshold): the solve runs and
	// touches ONLY the dirty shard — the other class's subproblem is
	// skipped on its clean fingerprint.
	before := ctrl.OptimizerStats()
	report(800, 400)
	if !g.TryEventSolve(t.Context()) {
		t.Fatal("50% swing did not trigger an event solve")
	}
	after := ctrl.OptimizerStats()
	if solved := after.SubSolves - before.SubSolves; solved != 1 {
		t.Fatalf("event solve ran %d subproblems, want 1 (dirty shard only)", solved)
	}
	if skipped := after.SkippedSolves - before.SkippedSolves; skipped != 1 {
		t.Fatalf("event solve skipped %d subproblems, want 1 (the clean shard)", skipped)
	}

	// Token bucket: EventBurst=2 tokens are spent; a third breach must
	// wait for the scheduled step to refill.
	report(1300, 400)
	if g.TryEventSolve(t.Context()) {
		t.Fatal("event solve ran with an empty token bucket")
	}
	if err := g.HAStep(t.Context()); err != nil {
		t.Fatal(err)
	}
	if !g.TryEventSolve(t.Context()) {
		t.Fatal("scheduled step did not refill an event token")
	}
}

// TestEventSolveDeterminism re-runs the breach/solve sequence on a
// fresh rig and checks the decision trail (breaches, solves, table
// version) is identical — event-driven behavior must be a pure function
// of the telemetry sequence, never of timing.
func TestEventSolveDeterminism(t *testing.T) {
	run := func() (breaches, solves uint64, version uint64) {
		top := topology.TwoClusters(40 * time.Millisecond)
		ctrl, err := core.NewController(top, starApp2(), core.ControllerConfig{
			DemandSmoothing: 1, Decompose: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		g := NewGlobal(ctrl)
		srv := httptest.NewServer(g.Handler())
		defer srv.Close()
		g.EnableHA(srv.URL, HAConfig{EventThreshold: 0.25, EventBurst: 2})
		b0, s0 := g.mEventBreaches.Value(), g.mEventSolves.Value()
		g.HAStep(t.Context())
		for _, rps := range []float64{300, 300, 500, 900, 900, 1400} {
			resp := postJSONReq(t, srv.URL+"/v1/metrics", MetricsReport{
				Cluster: topology.West, WindowMS: 1000,
				Stats: []telemetry.WindowStats{{
					Key: telemetry.MetricKey{Service: "gateway", Class: "ca", Cluster: string(topology.West)},
					RPS: rps, Requests: uint64(rps), Window: time.Second,
				}},
			})
			resp.Body.Close()
			g.TryEventSolve(t.Context())
		}
		return g.mEventBreaches.Value() - b0, g.mEventSolves.Value() - s0, ctrl.Table().Version
	}
	b1, s1, v1 := run()
	b2, s2, v2 := run()
	if b1 != b2 || s1 != s2 || v1 != v2 {
		t.Fatalf("event trail diverged: (%d,%d,%d) vs (%d,%d,%d)", b1, s1, v1, b2, s2, v2)
	}
	if b1 == 0 || s1 == 0 {
		t.Fatalf("sequence armed %d breaches / %d solves, want >0 of each", b1, s1)
	}
}
