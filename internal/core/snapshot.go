package core

import (
	"fmt"
	"math"

	"github.com/servicelayernetworking/slate/internal/forecast"
	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// Warm-state snapshot/restore. A single global controller accumulates
// warm state that makes steady-state ticks cheap: per-shard simplex
// bases (phase-1-free re-solves), input fingerprints (skip clean shards
// outright), cached sub-plans (the search race's incumbents), the EWMA
// demand estimate, and the forecaster's smoothing state. A replica that
// takes over leadership cold loses all of it and pays a cold-solve
// storm on its first tick — at exactly the moment the cluster most
// needs a fast reaction. ControllerSnapshot serializes that state so a
// newly elected leader resumes where the deposed one left off:
// bit-identical tables, warm solves, armed search race.
//
// What is NOT snapshotted, deliberately:
//
//   - Latency profiles and the telemetry sample history. A PoolProfile
//     is plain values (its Model is a queuemodel.MMc) and could be
//     encoded, but carrying it would change the snapshot format, so
//     today the restored controller re-derives DefaultProfiles and
//     (with LearnProfiles) refits from fresh telemetry within
//     minFitSamples windows. Bit-identical resume therefore holds
//     exactly when LearnProfiles is off, and approximately (converging
//     within a few windows) when it is on.
//   - Solve counters (OptimizerStats): they describe a process, not the
//     control state; a new leader starts its own counts.
//   - The tableau each shard's solver kept from its last solve, from
//     which a solve resumes when only demand and costs moved (a shard's
//     is some 70 kB packed). A restored controller installs each shard's
//     basis afresh instead, reaching the vertex the kept tableau would
//     by other pivots, which can leave other last bits in the weights.
//     So that a snapshot stays the point from which both continue bit
//     for bit, taking it makes the controller forget its kept tableaux
//     too: its next dirty solves install the same bases. A leader whose
//     followers poll every period thus installs every dirty shard, as
//     it did before tableaux were kept.
//
// Determinism: everything in a snapshot is either already
// deterministically ordered (tables and plans sort their keys, the
// forecast snapshot sorts its keys, shard order is a pure function of
// the app) or encoded via encoding/json maps (which sort keys), so
// encoding the same state twice yields identical bytes.

// SnapshotFormat versions the snapshot encoding. Restore rejects
// snapshots from a different format rather than guessing. Format 2
// dropped the optimizer's "sharded" flag: every optimizer snapshot is a
// list of shards, one when the app is not decomposed. Format 3 is the LP
// with one row per pool and no load or robust dual columns: a format-2
// basis indexes columns that have moved.
const SnapshotFormat = 3

// ShardSnapshot is one optimizer subproblem's warm state: the input
// fingerprint of its last solve, the simplex basis that solve ended on,
// and the cached sub-plan (which doubles as the search race's
// incumbent).
type ShardSnapshot struct {
	Fingerprint []float64 `json:"fingerprint,omitempty"`
	Basis       []int     `json:"basis,omitempty"`
	Plan        *Plan     `json:"plan,omitempty"`
}

// OptimizerSnapshot is the optimizer's warm state: one ShardSnapshot per
// subproblem, in partition order (a pure function of the app's call
// trees, so it matches across processes built from the same scenario).
type OptimizerSnapshot struct {
	Shards []ShardSnapshot `json:"shards,omitempty"`
}

// ControllerSnapshot is the controller's complete warm state. It is
// plain JSON-marshalable data: the control plane serves it at
// GET /v1/snapshot and follower replicas cache it for failover.
type ControllerSnapshot struct {
	Format          int                `json:"format"`
	Version         uint64             `json:"version"`
	Demand          Demand             `json:"demand,omitempty"`
	Table           *routing.Table     `json:"table,omitempty"`
	Prev            *routing.Table     `json:"prev,omitempty"`
	LastObjective   float64            `json:"last_objective"`
	HaveLastObj     bool               `json:"have_last_objective"`
	HoldAfterRevert bool               `json:"hold_after_revert"`
	Reverts         uint64             `json:"reverts"`
	IterLimitHolds  uint64             `json:"iter_limit_holds"`
	Forecast        *forecast.Snapshot `json:"forecast,omitempty"`
	Optimizer       *OptimizerSnapshot `json:"optimizer,omitempty"`
}

// Snapshot captures the controller's warm state. Tables and cached
// plans are immutable once published, so the snapshot shares them with
// the live controller; the demand map is deep-copied. Every shard's
// solver forgets its kept tableau, which the snapshot does not carry.
func (c *Controller) Snapshot() *ControllerSnapshot {
	s := &ControllerSnapshot{
		Format:          SnapshotFormat,
		Version:         c.version,
		Demand:          copyDemand(c.demand),
		Table:           c.cur,
		Prev:            c.prev,
		LastObjective:   c.lastObjective,
		HaveLastObj:     c.haveLastObj,
		HoldAfterRevert: c.holdAfterRevert,
		Reverts:         c.reverts,
		IterLimitHolds:  c.iterLimitHolds,
		Optimizer:       c.opt.snapshotState(),
	}
	if c.fc != nil {
		s.Forecast = c.fc.Snapshot()
	}
	return s
}

// Restore replaces the controller's warm state with a snapshot's. The
// controller must have been built from the same topology, app, and
// configuration as the one that produced the snapshot; a mismatched
// optimizer shape is rejected. On success the next Tick resumes with
// warm solves (or fingerprint skips) instead of a cold-solve storm.
//
// A snapshot in another format is rejected and the controller starts
// cold, except that it adopts the snapshot's version counter when that
// is ahead of its own: the counter means the same in every format, and
// the clusters' CAS fence refuses tables older than the one they hold,
// so a cold leader counting from zero would be fenced out until it
// caught up.
func (c *Controller) Restore(s *ControllerSnapshot) error {
	if s == nil {
		return fmt.Errorf("core: nil snapshot")
	}
	if s.Format != SnapshotFormat {
		if s.Version > c.version {
			c.version = s.Version
		}
		return fmt.Errorf("core: unknown snapshot format %d (want %d)", s.Format, SnapshotFormat)
	}
	if s.Optimizer != nil {
		if err := c.opt.restoreState(s.Optimizer); err != nil {
			return err
		}
	}
	c.version = s.Version
	c.demand = copyDemand(s.Demand)
	if c.demand == nil {
		c.demand = Demand{}
	}
	if s.Table != nil {
		c.cur = s.Table
	} else {
		c.cur = routing.EmptyTable()
	}
	c.prev = s.Prev
	c.lastObjective = s.LastObjective
	c.haveLastObj = s.HaveLastObj
	c.holdAfterRevert = s.HoldAfterRevert
	c.reverts = s.Reverts
	c.iterLimitHolds = s.IterLimitHolds
	if c.fc != nil && s.Forecast != nil {
		c.fc.Restore(s.Forecast)
	}
	return nil
}

// snapshotState captures every shard's warm state in partition order,
// and makes every shard's solver forget the tableau it kept, so that the
// next solve from the basis captured here installs it as a restored
// shard's does. A fingerprint containing a non-finite entry (a pool that
// had no profile when last solved) is dropped rather than breaking the
// JSON encoding — that shard simply re-solves after restore.
func (s *ShardedOptimizer) snapshotState() *OptimizerSnapshot {
	out := &OptimizerSnapshot{}
	for _, sh := range s.shards {
		sh.opt.solver.Forget()
		out.Shards = append(out.Shards, ShardSnapshot{
			Fingerprint: finiteSlice(sh.fp),
			Basis:       append([]int(nil), sh.opt.basis...),
			Plan:        sh.plan,
		})
	}
	return out
}

// restoreState installs a snapshot's per-shard warm state. The
// partition is a pure function of the app, so shard counts match
// across processes built from the same scenario; a mismatch means the
// snapshot came from a different configuration and is rejected whole.
// A restored shard whose next inputs match its fingerprint is skipped
// outright; a dirty shard warm-starts from the restored basis; with
// the race armed, the restored plan is the search's incumbent.
func (s *ShardedOptimizer) restoreState(snap *OptimizerSnapshot) error {
	if len(snap.Shards) != len(s.shards) {
		return fmt.Errorf("core: snapshot shape mismatch: %d shards, snapshot has %d",
			len(s.shards), len(snap.Shards))
	}
	for i, sh := range s.shards {
		ss := snap.Shards[i]
		sh.fp = append([]float64(nil), ss.Fingerprint...)
		sh.plan = ss.Plan
		sh.opt.restored = append([]int(nil), ss.Basis...)
	}
	return nil
}

// copyDemand deep-copies a demand map so snapshot and controller do not
// alias mutable state.
func copyDemand(d Demand) Demand {
	if d == nil {
		return nil
	}
	out := make(Demand, len(d))
	for class, per := range d {
		cp := make(map[topology.ClusterID]float64, len(per))
		for cl, v := range per {
			cp[cl] = v
		}
		out[class] = cp
	}
	return out
}

// finiteSlice copies v, or returns nil if any entry is NaN or ±Inf
// (JSON cannot carry them).
func finiteSlice(v []float64) []float64 {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil
		}
	}
	if v == nil {
		return nil
	}
	return append([]float64(nil), v...)
}
