package core_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/servicelayernetworking/slate/internal/core"
	"github.com/servicelayernetworking/slate/internal/lp"
	"github.com/servicelayernetworking/slate/internal/scenario"
	"github.com/servicelayernetworking/slate/internal/sim"
	"github.com/servicelayernetworking/slate/internal/telemetry"
)

// streamTicks is the length of one controller stream.
const streamTicks = 8

// stream is one FuzzControllerStream input, decoded into its bounds: a
// generated deployment of 2–7 clusters, 2–15 services and 1–4 classes,
// each service placed in 1–3 clusters with 1–3 replicas of concurrency
// 2–8, demand at 0.5–4.5× the generated load, the robust margin 0 or 0.25,
// the search race on or off, and the tick after which a follower
// restores the leader's snapshot.
type stream struct {
	spec      scenario.GenSpec
	maxFactor float64 // each class's demand factor is drawn from [0.5, maxFactor]
	cfg       core.ControllerConfig
	restoreAt int
}

func newStream(seed int64, clusters, services, classes, spread, replicas, concurrency, load, flags uint8) stream {
	s := stream{
		spec: scenario.GenSpec{
			Seed:            seed,
			Clusters:        2 + int(clusters%6),
			Regions:         2,
			Services:        2 + int(services%14),
			Classes:         1 + int(classes%4),
			Spread:          1 + int(spread%3),
			Replicas:        1 + int(replicas%3),
			Concurrency:     2 + int(concurrency%7),
			ArrivalSpread:   2,
			RemoteFraction:  0.1,
			MeanServiceTime: 2 * time.Millisecond,
		},
		maxFactor: 0.5 + 4*float64(load)/math.MaxUint8,
		cfg:       core.ControllerConfig{DemandSmoothing: 1, Decompose: true, Search: flags&1 != 0},
		restoreAt: int(flags>>2) % streamTicks,
	}
	s.spec.TotalRPS = 1000 * float64(s.spec.Classes)
	if flags&2 != 0 {
		s.cfg.Optimizer.DemandMargin = 0.25
	}
	return s
}

// window is the stream's next telemetry window: each class's generated
// load at a factor drawn from [0.5, maxFactor].
func (s stream) window(g *scenario.Generated, rng *sim.RNG) []telemetry.WindowStats {
	factors := make([]float64, len(g.App.Classes))
	for i := range factors {
		factors[i] = 0.5 + (s.maxFactor-0.5)*rng.Float64()
	}
	return genWindow(g, func(class int) float64 { return factors[class] })
}

// streamTally counts what a stream's ticks did.
type streamTally struct {
	ticks, infeasible, aboveOptimum int
	worstGap                        float64 // published objective over the optimum, less 1
}

// run drives a leader controller through the stream and checks, per
// tick, the contract of a decomposed, warm-started, possibly raced
// controller against a cold monolithic Problem.Optimize of the same
// demand and profiles:
//   - both are feasible or both fail;
//   - the published table, scored under the monolithic LP
//     (core.EvaluateTable), is never below the optimum, and with the
//     race off equals it within 1e-7 relative; with the race on it is
//     within the race's certified gap, (obj − LB)/obj ≤ MaxGap, so
//     obj·(1 − MaxGap) ≤ optimum;
//   - a follower restored from the leader's snapshot after tick
//     restoreAt publishes the leader's table, bit for bit, from then on.
func (s stream) run(t *testing.T) streamTally {
	t.Helper()
	g, err := scenario.Generate(s.spec)
	if err != nil {
		t.Fatalf("Generate(%+v): %v", s.spec, err)
	}
	leader, err := core.NewController(g.Top, g.App, s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	var follower *core.Controller
	rng := sim.NewRNG(s.spec.Seed)
	var tally streamTally
	for tick := 0; tick < streamTicks; tick++ {
		window := s.window(g, rng)
		holds := leader.IterLimitHolds()
		tab, err := leader.Tick(window, time.Second)
		if follower != nil {
			ftab, ferr := follower.Tick(window, time.Second)
			if fmt.Sprint(ferr) != fmt.Sprint(err) || ftab.Version != tab.Version || tableHash(ftab) != tableHash(tab) {
				t.Fatalf("tick %d: follower restored after tick %d published v%d (err %v), leader v%d (err %v)",
					tick, s.restoreAt, ftab.Version, ferr, tab.Version, err)
			}
		}
		if tick == s.restoreAt {
			follower = restoreFollower(t, g, s.cfg, leader)
		}
		if leader.IterLimitHolds() != holds {
			continue // held on an exhausted pivot budget: no plan to compare
		}
		tally.ticks++
		p := &core.Problem{Top: g.Top, App: g.App, Demand: leader.Demand(), Profiles: leader.Profiles(), Config: s.cfg.Optimizer}
		opt, coldErr := p.Optimize(1)
		if errors.Is(coldErr, lp.ErrIterLimit) {
			continue
		}
		if (err == nil) != (coldErr == nil) {
			t.Fatalf("tick %d: controller error %v, monolithic error %v", tick, err, coldErr)
		}
		if err != nil {
			tally.infeasible++
			continue
		}
		got, err := core.EvaluateTable(p, tab)
		if err != nil {
			t.Fatalf("tick %d: published table: %v", tick, err)
		}
		want := opt.Objective
		tol := 1e-7 * math.Max(1, math.Abs(want))
		gap := (got - want) / math.Max(math.Abs(want), 1e-300)
		tally.worstGap = math.Max(tally.worstGap, gap)
		if got < want-tol {
			t.Fatalf("tick %d: published objective %v below the optimum %v", tick, got, want)
		}
		if got > want+tol {
			tally.aboveOptimum++
			if !s.cfg.Search {
				t.Fatalf("tick %d: race off, published objective %v, optimum %v", tick, got, want)
			}
			if got*(1-core.DefaultMaxGap) > want+tol {
				t.Fatalf("tick %d: raced objective %v is %.3g above the optimum %v, beyond MaxGap %v", tick, got, gap, want, core.DefaultMaxGap)
			}
		}
	}
	return tally
}

// restoreFollower builds a controller from a JSON round trip of the
// leader's snapshot, as a replica taking over would.
func restoreFollower(t *testing.T, g *scenario.Generated, cfg core.ControllerConfig, leader *core.Controller) *core.Controller {
	t.Helper()
	body, err := json.Marshal(leader.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap core.ControllerSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	f, err := core.NewController(g.Top, g.App, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Restore(&snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	return f
}

// FuzzControllerStream is the randomized controller differential: every
// input is a generated deployment and a stream of ticks, checked by
// stream.run. Its named corpus files (testdata/fuzz/FuzzControllerStream)
// are one race-off stream per size class, race-gap (a raced plan above
// the optimum, inside MaxGap) and overload-both-infeasible;
// TestControllerStreamCorpus holds each to its name.
func FuzzControllerStream(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(6), uint8(1), uint8(1), uint8(1), uint8(6), uint8(32), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, clusters, services, classes, spread, replicas, concurrency, load, flags uint8) {
		newStream(seed, clusters, services, classes, spread, replicas, concurrency, load, flags).run(t)
	})
}

// streamCorpus is the directory of FuzzControllerStream's corpus.
var streamCorpus = filepath.Join("testdata", "fuzz", "FuzzControllerStream")

// corpusStream decodes one of FuzzControllerStream's corpus files.
func corpusStream(t *testing.T, file string) stream {
	t.Helper()
	args := readCorpusFile(t, filepath.Join(streamCorpus, file))
	u := func(i int) uint8 { return uint8(args[i]) }
	return newStream(args[0], u(1), u(2), u(3), u(4), u(5), u(6), u(7), u(8))
}

// TestControllerStreamCorpus replays FuzzControllerStream's named corpus
// files and checks that each still shows what it is named for, so a
// change that moves a stream off its case is seen rather than silently
// testing less.
func TestControllerStreamCorpus(t *testing.T) {
	raceOff := func(s stream, tl streamTally) bool { return !s.cfg.Search && tl.infeasible == 0 }
	for _, c := range []struct {
		file string
		want func(stream, streamTally) bool
	}{
		{"race-off-small", raceOff},
		{"race-off-medium", raceOff},
		{"race-off-large", raceOff},
		{"race-gap", func(s stream, tl streamTally) bool { return s.cfg.Search && tl.aboveOptimum > 0 }},
		{"overload-both-infeasible", func(_ stream, tl streamTally) bool { return tl.infeasible > 0 }},
	} {
		t.Run(c.file, func(t *testing.T) {
			s := corpusStream(t, c.file)
			tl := s.run(t)
			t.Logf("%d clusters, %d services, %d classes: %+v", s.spec.Clusters, s.spec.Services, s.spec.Classes, tl)
			if !c.want(s, tl) {
				t.Fatalf("stream %+v, tally %+v: no longer the case it is named for", s, tl)
			}
		})
	}
}

// readCorpusFile parses a Go fuzz corpus file of integer arguments.
func readCorpusFile(t *testing.T, path string) []int64 {
	t.Helper()
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 10 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: want a header and 9 arguments, got %q", path, lines)
	}
	var out []int64
	for _, l := range lines[1:] {
		_, v, ok := strings.Cut(strings.TrimSuffix(l, ")"), "(")
		n, err := strconv.ParseInt(v, 10, 64)
		if !ok || err != nil {
			t.Fatalf("%s: argument %q", path, l)
		}
		out = append(out, n)
	}
	return out
}
