package telemetry

import (
	"testing"
	"time"
)

// TestHistogramRecordAllocationFree pins telemetry ingestion — called
// once per simulated request completion — at zero heap allocations.
func TestHistogramRecordAllocationFree(t *testing.T) {
	h := DefaultHistogram()
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		h.Record(time.Duration(i%100) * time.Millisecond)
		i++
	}); n != 0 { //slate:nolint floatcmp -- AllocsPerRun returns an integer-valued count
		t.Fatalf("Record allocates %v per run, want 0", n)
	}
}

// histSink keeps the histograms under measurement on the heap.
var histSink *Histogram

// TestDefaultHistogramSharesLayout: a default histogram is its header and
// its counts; the bucket layout is built once and shared.
func TestDefaultHistogramSharesLayout(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { histSink = DefaultHistogram() }); n != 2 { //slate:nolint floatcmp -- AllocsPerRun returns an integer-valued count
		t.Fatalf("DefaultHistogram allocates %v objects, want 2 (header and counts)", n)
	}
}
