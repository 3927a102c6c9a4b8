package fault

import (
	"time"

	"github.com/servicelayernetworking/slate/internal/topology"
)

// window is one scheduled fault's active span, [at, at+dur) relative to
// scenario time zero.
type window struct{ at, dur time.Duration }

func (w window) activeAt(now time.Duration) bool {
	return now >= w.at && now < w.at+w.dur
}

type outage struct {
	target Target
	window
}

type cut struct {
	pair clusterPair
	window
}

// Schedule is a declarative fault timeline on virtual time, queried
// directly by the discrete-event simulator. A nil *Schedule is valid
// and schedules nothing. Builder methods return the receiver for
// chaining and are not safe for concurrent use with queries; build the
// schedule fully before running.
type Schedule struct {
	outages []outage
	cuts    []cut
}

// NewSchedule returns an empty schedule.
func NewSchedule() *Schedule { return &Schedule{} }

// Outage schedules a component crash on [at, at+dur).
func (s *Schedule) Outage(t Target, at, dur time.Duration) *Schedule {
	s.outages = append(s.outages, outage{t, window{at, dur}})
	return s
}

// Partition schedules a cluster partition on [at, at+dur).
func (s *Schedule) Partition(a, b topology.ClusterID, at, dur time.Duration) *Schedule {
	s.cuts = append(s.cuts, cut{orderedPair(a, b), window{at, dur}})
	return s
}

// Flap schedules n short outages of t starting at `at`: each cycle is
// down for `down`, then up for `up`. It models a crash-looping
// controller.
func (s *Schedule) Flap(t Target, at time.Duration, n int, down, up time.Duration) *Schedule {
	for k := 0; k < n; k++ {
		s.Outage(t, at+time.Duration(k)*(down+up), down)
	}
	return s
}

// DownAt reports whether target t is inside an outage window at now.
func (s *Schedule) DownAt(t Target, now time.Duration) bool {
	if s == nil {
		return false
	}
	for _, o := range s.outages {
		if o.target == t && o.activeAt(now) {
			return true
		}
	}
	return false
}

// PartitionedAt reports whether clusters a and b are cut off at now.
func (s *Schedule) PartitionedAt(a, b topology.ClusterID, now time.Duration) bool {
	if s == nil || a == b {
		return false
	}
	p := orderedPair(a, b)
	for _, c := range s.cuts {
		if c.pair == p && c.activeAt(now) {
			return true
		}
	}
	return false
}
