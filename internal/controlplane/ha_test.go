package controlplane

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

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

func newHARig(t *testing.T, n int, ttl time.Duration) *haRig {
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
		g.EnableHA(srv.URL, ttl)
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
	rig := newHARig(t, 3, ttl)
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

// TestEnableHALeaseTTL: the TTL EnableHA is given is the one a
// campaign asks the acceptors for, and one ≤ 0 asks for the 10 s
// default.
func TestEnableHALeaseTTL(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ttl    time.Duration
		wantMS int64
	}{
		{"zero-defaults", 0, 10_000},
		{"negative-defaults", -time.Second, 10_000},
		{"given", 3 * time.Second, 3_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			asked := make(chan int64, 1)
			acc := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/v1/lease" {
					return
				}
				var req LeaseRequest
				if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				select {
				case asked <- req.TTLMS:
				default:
				}
				_ = json.NewEncoder(w).Encode(LeaseResponse{Granted: true, Holder: req.Candidate, Epoch: req.Epoch, ExpiresInMS: req.TTLMS})
			}))
			t.Cleanup(acc.Close)
			g, srv := newGlobalServer(t)
			g.EnableHA(srv.URL, tc.ttl)
			resp := postJSONReq(t, srv.URL+"/v1/register", RegisterRequest{Cluster: topology.West, URL: acc.URL})
			drain(resp)
			if resp.StatusCode != http.StatusNoContent {
				t.Fatalf("register status = %d, want %d", resp.StatusCode, http.StatusNoContent)
			}
			if err := g.HAStep(t.Context()); err != nil {
				t.Fatal(err)
			}
			select {
			case got := <-asked:
				if got != tc.wantMS {
					t.Errorf("campaign asked for TTL %d ms, want %d", got, tc.wantMS)
				}
			default:
				t.Fatal("HAStep sent no lease request")
			}
			if !g.IsLeader() {
				t.Error("replica granted by its only acceptor does not lead")
			}
		})
	}
}

// TestFollowerPlansOnlyThroughHAStep: no HTTP request makes a follower
// plan. A replica runs its Controller's Tick only from HAStep, behind
// the leader check; a POST to the retired
// /v1/optimize, which ticked the replica it reached, is refused and
// leaves the follower's controller and every cluster's table as they
// were.
func TestFollowerPlansOnlyThroughHAStep(t *testing.T) {
	rig := newHARig(t, 2, 10*time.Second)
	r0, r1 := rig.reps[0], rig.reps[1]
	rig.report(900, 100)
	rig.step(nil)
	if !r0.g.IsLeader() || r1.g.IsLeader() {
		t.Fatalf("want r0 sole leader; got %v %v", r0.g.IsLeader(), r1.g.IsLeader())
	}
	rig.report(900, 100)
	version, table := r1.ctrl.Version(), rig.clusters[0].Table().Version
	resp := postJSONReq(t, r1.srv.URL+"/v1/optimize", struct{}{})
	drain(resp)
	if resp.StatusCode < 400 {
		t.Errorf("POST /v1/optimize on a follower answered %d, want a refusal", resp.StatusCode)
	}
	if got := r1.ctrl.Version(); got != version {
		t.Errorf("follower's controller moved from version %d to %d", version, got)
	}
	if got := rig.clusters[0].Table().Version; got != table {
		t.Errorf("cluster table moved from version %d to %d", table, got)
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
// follower's cached snapshot is in an old encoding — format 1, or
// format 2, whose bases index the columns of the LP before each pool
// took one row. On winning the lease it must reject the snapshot, start
// cold adopting only its version counter, and still land a valid table
// on every cluster within two control periods — demand drifts
// beforehand so the clusters hold a table well past version 1, which a
// leader counting from zero could not replace (the CAS fence refuses
// version regressions).
func TestFailoverWithStaleFormatSnapshot(t *testing.T) {
	for _, format := range []int{1, 2} {
		t.Run(fmt.Sprintf("format%d", format), func(t *testing.T) {
			failoverWithStaleSnapshot(t, format)
		})
	}
}

// failoverWithStaleSnapshot fails over to a follower whose cached
// snapshot is in the given, stale, format.
func failoverWithStaleSnapshot(t *testing.T, format int) {
	if format == core.SnapshotFormat {
		t.Fatalf("format %d is the current one", format)
	}
	const ttl = 10 * time.Second
	rig := newHARig(t, 2, ttl)
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
	r1.g.snapCache.Format = format
	snapVersion := r1.g.snapCache.Version
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
		t.Fatalf("format-%d snapshot was restored (%d restores)", format, got-restoresBefore)
	}
	if v := r1.ctrl.Version(); v <= snapVersion {
		t.Fatalf("the new leader is at table version %d, want past the snapshot's %d (its counter adopted)", v, snapVersion)
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
