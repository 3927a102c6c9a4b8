package forecast

import "testing"

// TestObservePredictAllocationFree pins the per-key hot path at zero
// heap allocations once a key's state exists — Observe folds in place
// and predict is pure arithmetic. The once-per-key create path is the
// declared //slate:cold exception.
func TestObservePredictAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"ewma", Config{Alpha: 0.5}},
		{"holt", Config{Alpha: 0.5, Beta: 0.3}},
		{"holtwinters", Config{Alpha: 0.5, Beta: 0.1, Gamma: 0.3, SeasonLength: 12}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := New(tc.cfg)
			f.Observe(key, 100) // create the state outside the measured region
			v := 100.0
			if n := testing.AllocsPerRun(200, func() {
				f.Observe(key, v)
				v += 1
			}); n != 0 { //slate:nolint floatcmp -- AllocsPerRun returns an integer-valued count
				t.Fatalf("Observe allocates %v per run, want 0", n)
			}
			if n := testing.AllocsPerRun(200, func() {
				if predict(f, key, 1) < 0 {
					t.Fatal("negative forecast")
				}
			}); n != 0 { //slate:nolint floatcmp -- AllocsPerRun returns an integer-valued count
				t.Fatalf("predict allocates %v per run, want 0", n)
			}
			if n := testing.AllocsPerRun(200, func() {
				f.EndWindow()
			}); n != 0 { //slate:nolint floatcmp -- AllocsPerRun returns an integer-valued count
				t.Fatalf("EndWindow allocates %v per run, want 0", n)
			}
		})
	}
}
