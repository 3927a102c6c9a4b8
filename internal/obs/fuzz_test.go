package obs

import (
	"bytes"
	"testing"
)

// FuzzReadSpans drives the JSONL span parser with arbitrary input: it
// must never panic, and every dump it accepts must survive a
// write-back/re-read round trip unchanged (the exporter and parser
// agree on the format).
func FuzzReadSpans(f *testing.F) {
	f.Add([]byte(`{"trace":"abc","span":"1","parent":"0","service":"s","cluster":"west","class":"k","start_ns":0,"end_ns":500}` + "\n"))
	f.Add([]byte(`{"trace":"ffffffffffffffff","span":"2","parent":"1","service":"b","cluster":"east","class":"k","method":"GET","path":"/x/:id","start_ns":5,"end_ns":9,"req_bytes":10,"resp_bytes":20,"remote":true}` + "\n"))
	f.Add([]byte("\n\n"))
	f.Add([]byte(`{"trace":"zz"}`))
	f.Add([]byte(`not json at all`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spans, err := readSpans(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		sw := NewSpanWriter(&buf)
		if err := sw.WriteSpans(spans); err != nil {
			t.Fatalf("re-exporting parsed spans failed: %v", err)
		}
		back, err := readSpans(&buf)
		if err != nil {
			t.Fatalf("re-parsing exported spans failed: %v", err)
		}
		if len(back) != len(spans) {
			t.Fatalf("round trip changed span count: %d -> %d", len(spans), len(back))
		}
		for i := range spans {
			if back[i] != spans[i] {
				t.Fatalf("span %d changed through round trip:\n%+v\n%+v", i, spans[i], back[i])
			}
		}
	})
}
