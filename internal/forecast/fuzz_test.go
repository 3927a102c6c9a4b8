package forecast

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzForecastIngest drives a Forecaster with an arbitrary telemetry
// window sequence decoded from the fuzz input: each 9-byte record is
// an opcode (which key to observe / end the window / reconfigure)
// followed by 8 bytes reinterpreted as a float64 observation — so the
// fuzzer reaches NaN, ±Inf, negatives, denormals, and huge magnitudes
// directly. The invariant under attack: no input sequence may ever
// produce a NaN, Inf, or negative demand forecast.
func FuzzForecastIngest(f *testing.F) {
	rec := func(op byte, v float64) []byte {
		out := make([]byte, 9)
		out[0] = op
		binary.LittleEndian.PutUint64(out[1:], math.Float64bits(v))
		return out
	}
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	f.Add(cat(rec(0, 100), rec(4, 0), rec(0, 200), rec(4, 0)))
	f.Add(cat(rec(0, math.NaN()), rec(1, math.Inf(1)), rec(2, -5), rec(4, 0)))
	f.Add(cat(rec(3, 1e308), rec(4, 0), rec(3, -1e308), rec(4, 0), rec(5, 0)))
	f.Add(cat(rec(0, 5e-324), rec(0, 1.5), rec(4, 0), rec(0, 0)))

	keys := []Key{
		{Class: "default", Cluster: "us-west"},
		{Class: "default", Cluster: "us-east"},
		{Class: "batch", Cluster: "us-west"},
		{Class: "rt", Cluster: "eu"},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The low opcode bits also pick the config so every model
		// variant (EWMA, Holt, seasonal) sees hostile inputs.
		cfg := Config{Alpha: 0.5}
		if len(data) > 0 {
			switch data[0] % 3 {
			case 1:
				cfg = Config{Alpha: 0.3, Beta: 0.2}
			case 2:
				cfg = Config{Alpha: 0.4, Beta: 0.1, Gamma: 0.3, SeasonLength: 3}
			}
		}
		fc := New(cfg)
		check := func() {
			fc.Each(1, func(k Key, p float64) {
				if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
					t.Fatalf("key %v forecast %v (NaN/Inf/negative)", k, p)
				}
			})
			for _, k := range keys {
				for _, h := range []int{1, 2, 7} {
					if p := predict(fc, k, h); math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
						t.Fatalf("key %v h %d forecast %v (NaN/Inf/negative)", k, h, p)
					}
				}
			}
		}
		for len(data) >= 9 {
			op := data[0]
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[1:9]))
			data = data[9:]
			switch {
			case op < 4:
				fc.Observe(keys[op], v)
			case op == 4:
				fc.EndWindow()
			default:
				check()
			}
		}
		fc.EndWindow()
		check()
	})
}
