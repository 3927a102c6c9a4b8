package controlplane

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/servicelayernetworking/slate/internal/routing"
	"github.com/servicelayernetworking/slate/internal/telemetry"
	"github.com/servicelayernetworking/slate/internal/topology"
)

// FuzzReportCodec holds the report decoder to encoding/json. For any
// body, decodeReport errs exactly when json.Unmarshal errs, and the
// reports are reflect.DeepEqual when both succeed. The checked-in corpus
// seeds one input per behaviour of encoding/json that is easy to miss:
// case-folded keys (K and ſ included), unknown members skipped but
// checked, null on scalars and slices, [] versus null, a repeated "stats"
// merging into the first array's elements, integer literals through
// ParseInt/ParseUint (1e3, 1.0, -0 into a uint), floats out of range and
// in json.Marshal's 'e' format, escapes (HTML ones and U+2028 included)
// and invalid UTF-8, nesting at and past 10 000, trailing data, and the
// table version and leader epoch out of range, negative and null.
func FuzzReportCodec(f *testing.F) {
	var names internTable
	f.Fuzz(func(t *testing.T, body []byte) {
		var want, got MetricsReport
		wantErr := json.Unmarshal(body, &want)
		gotErr := decodeReport(body, &got, &names)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decodeReport(%q) err = %v, json.Unmarshal err = %v", body, gotErr, wantErr)
		}
		if wantErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeReport(%q)\n got %#v\nwant %#v", body, got, want)
		}
	})
}

// steadyReport is a representative steady-tick upload: a delta report
// whose seven stats all moved, with realistic names and magnitudes.
func steadyReport() *MetricsReport {
	rep := &MetricsReport{Cluster: "cluster-07", WindowMS: 1000, Delta: true, Epoch: 42}
	for i := range 7 {
		rep.Stats = append(rep.Stats, telemetry.WindowStats{
			Key:         telemetry.MetricKey{Service: fmt.Sprintf("svc-%02d", 11*i%96), Class: fmt.Sprintf("class-%02d", 3*i%24), Cluster: "cluster-07"},
			Window:      time.Second,
			Requests:    uint64(1200 + 37*i),
			RPS:         1200.137 + 36.91*float64(i),
			MeanLatency: time.Duration(12_345_678 + 1000*i),
			P50:         11 * time.Millisecond,
			P99:         time.Duration(48_123_456 + i),
			EgressBytes: int64(65_536 * i),
		})
	}
	return rep
}

// TestReportCodecRoundTrip ties the decoder's field tables to the struct
// types: every field of a report, its stats and its keys is set by
// reflection to a value no other field holds, so a field the decoder does
// not know (one added to telemetry.WindowStats, say) or decodes into the
// wrong place comes back different from what json.Marshal sent.
func TestReportCodecRoundTrip(t *testing.T) {
	var rep MetricsReport
	n := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		n++
		switch v.Kind() {
		case reflect.Struct:
			for i := range v.NumField() {
				fill(v.Field(i))
			}
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			for i := range v.Len() {
				fill(v.Index(i))
			}
		case reflect.String:
			v.SetString(fmt.Sprintf("name-%d", n))
		case reflect.Int64:
			v.SetInt(int64(n))
		case reflect.Uint64:
			v.SetUint(uint64(n))
		case reflect.Float64:
			v.SetFloat(float64(n) + 0.25)
		case reflect.Bool:
			v.SetBool(true)
		default:
			t.Fatalf("a %v field (%v) the decoder has no case for", v.Kind(), v.Type())
		}
	}
	fill(reflect.ValueOf(&rep).Elem())
	for _, rep := range []*MetricsReport{&rep, steadyReport()} {
		body, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		var got MetricsReport
		if err := decodeReport(body, &got, nil); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&got, rep) {
			t.Fatalf("round trip of %s\n got %#v\nwant %#v", body, got, rep)
		}
	}
}

// TestDecodeReportAllocs pins the decode of a steady report against a
// warm intern table: the stats list is its one allocation.
func TestDecodeReportAllocs(t *testing.T) {
	body, err := json.Marshal(steadyReport())
	if err != nil {
		t.Fatal(err)
	}
	var names internTable
	var rep MetricsReport
	if err := decodeReport(body, &rep, &names); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		rep = MetricsReport{}
		if err := decodeReport(body, &rep, &names); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 { //slate:nolint floatcmp -- AllocsPerRun returns an integer-valued count
		t.Fatalf("decodeReport allocates %v objects per report, want 1 (the stats list)", allocs)
	}
}

// TestReportCodecInternTable checks that reports decoded against one
// table share their name strings, that names too long to keep are not
// kept, and that no number of distinct names grows the table past its cap.
func TestReportCodecInternTable(t *testing.T) {
	var names internTable
	body, err := json.Marshal(steadyReport())
	if err != nil {
		t.Fatal(err)
	}
	var a, b MetricsReport
	if err := decodeReport(body, &a, &names); err != nil {
		t.Fatal(err)
	}
	if err := decodeReport(body, &b, &names); err != nil {
		t.Fatal(err)
	}
	if unsafe.StringData(a.Stats[0].Key.Service) != unsafe.StringData(b.Stats[0].Key.Service) ||
		unsafe.StringData(string(a.Cluster)) != unsafe.StringData(string(b.Cluster)) {
		t.Fatal("two reports decoded against one table do not share their names")
	}

	long := strings.Repeat("x", internMaxLen+1)
	if s := names.str([]byte(long)); s != long || names.m[long] != "" {
		t.Fatalf("a %d-byte name was interned", len(long))
	}
	for i := range internMaxEntries + 100 {
		name := fmt.Sprintf("svc-%d", i)
		if s := names.str([]byte(name)); s != name {
			t.Fatalf("str(%q) = %q", name, s)
		}
	}
	if n := len(names.m); n != internMaxEntries {
		t.Fatalf("intern table holds %d names, want the cap %d", n, internMaxEntries)
	}
}

// TestReportCodecConcurrentIntern decodes on several goroutines against one
// table (run it under -race): every goroutine sees the same strings.
func TestReportCodecConcurrentIntern(t *testing.T) {
	var names internTable
	body, err := json.Marshal(steadyReport())
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]MetricsReport, 8)
	var wg sync.WaitGroup
	for i := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := decodeReport(body, &reps[i], &names); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i := range reps {
		if unsafe.StringData(reps[i].Stats[3].Key.Class) != unsafe.StringData(reps[0].Stats[3].Key.Class) {
			t.Fatalf("report %d holds its own copy of a name", i)
		}
	}
}

// The POST bodies other than telemetry hold exactly one JSON value:
// anything after it gets 400 and changes nothing.

func TestPatchRefusesTrailingData(t *testing.T) {
	c := NewCluster(topology.West, "")
	c.ApplyTable(routing.NewTable(3, nil))
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/patch",
		strings.NewReader(`{"from_version":3,"version":4} trailing garbage`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("patch with trailing data = %d, want 400", rec.Code)
	}
	if v := c.Table().Version; v != 3 {
		t.Fatalf("patch with trailing data moved the cluster to version %d", v)
	}
}

func TestRegisterRefusesTrailingData(t *testing.T) {
	g, srv := newGlobalServer(t)
	resp, err := http.Post(srv.URL+"/v1/register", "application/json",
		strings.NewReader(`{"cluster":"west","url":"http://127.0.0.1:1"}{{{`))
	if err != nil {
		t.Fatal(err)
	}
	drain(resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("register with trailing data = %d, want 400", resp.StatusCode)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.clusters) != 0 {
		t.Fatalf("register with trailing data registered %v", g.clusters)
	}
}

func TestLeaseRefusesTrailingData(t *testing.T) {
	c := NewCluster(topology.West, "")
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/lease",
		strings.NewReader(`{"candidate":"a","epoch":1,"ttl_ms":1000},`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("lease with trailing data = %d, want 400", rec.Code)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.leaseHolder != "" || c.pubEpoch != 0 {
		t.Fatalf("lease with trailing data was granted to %q, fence at %d", c.leaseHolder, c.pubEpoch)
	}
}

// TestClusterRefusesNegativeRate: a proxy push with a negative rate is
// refused and counted, so the cluster's next report still reaches the
// global instead of costing every service of the cluster its window.
func TestClusterRefusesNegativeRate(t *testing.T) {
	_, srv := newGlobalServer(t)
	c := NewCluster(topology.West, srv.URL)
	before := c.mIngestErrs.Value()
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/metrics",
		strings.NewReader(`[{"Key":{"Service":"gateway","Class":"default","Cluster":"west"},"RPS":-5}]`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("push with a negative rate = %d, want 400", rec.Code)
	}
	if n := c.mIngestErrs.Value() - before; n != 1 {
		t.Fatalf("ingest errors went up by %d, want 1", n)
	}
	c.Ingest(feStats(900, 100))
	if err := c.Report(t.Context(), time.Second); err != nil {
		t.Fatalf("report after a refused push: %v", err)
	}
}
