package experiments

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/servicelayernetworking/slate/internal/simrun"
)

// TestRunLegsOrderIndependent is the leg runner's contract: a table's
// per-leg results are bit-identical on one worker, on several, and with
// the legs reversed, because no leg can reach another's controller,
// demand map or scenario. chaos primes both legs from one demand map
// and ticks; burst mixes all three leg constructors.
func TestRunLegsOrderIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each table three times")
	}
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	run := func(workers int, legs []leg) []*simrun.Result {
		t.Helper()
		runtime.GOMAXPROCS(workers)
		res, err := runLegs(legs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	opt := Options{Seed: 42}.defaults()
	for name, table := range map[string]func(Options) []leg{"chaos": chaosLegs, "burst": burstLegs} {
		legs := table(opt)
		serial := run(1, legs)
		parallel := run(max(procs, 2), legs)
		backwards := slices.Clone(legs)
		slices.Reverse(backwards)
		reversed := run(max(procs, 2), backwards)
		slices.Reverse(reversed)
		for i, l := range legs {
			if !reflect.DeepEqual(serial[i], parallel[i]) {
				t.Errorf("%s/%s: result on several workers differs from one worker", name, l.name)
			}
			if !reflect.DeepEqual(serial[i], reversed[i]) {
				t.Errorf("%s/%s: result depends on leg order", name, l.name)
			}
		}
	}
}
