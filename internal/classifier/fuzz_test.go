package classifier

import (
	"strings"
	"testing"
)

// FuzzTemplatePath drives the path templater (the only parser on the
// data-plane classification hot path) with arbitrary request paths and
// checks its structural invariants: no panic, non-empty output,
// idempotence, and segment-count preservation.
func FuzzTemplatePath(f *testing.F) {
	seeds := []string{
		"",
		"/",
		"/user/123/cart",
		"/user/550e8400-e29b-41d4-a716-446655440000/orders",
		"/blob/deadbeef00112233",
		"/a/b/c",
		"//double//slashes//",
		"/user/:id/cart",
		"/UPPER/123ABC/x",
		"/%2f/..%00/\xff\xfe",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, path string) {
		out := TemplatePath(path)
		if out == "" {
			t.Fatalf("TemplatePath(%q) = empty", path)
		}
		if again := TemplatePath(out); again != out {
			t.Fatalf("not idempotent: TemplatePath(%q) = %q, re-templated to %q", path, out, again)
		}
		if path != "" && strings.Count(out, "/") != strings.Count(path, "/") {
			t.Fatalf("segment count changed: %q (%d slashes) -> %q (%d slashes)",
				path, strings.Count(path, "/"), out, strings.Count(out, "/"))
		}

		// The full classifier built on top of it must agree with itself:
		// immediately after Observe, Classify returns the observed key.
		c := New(Options{MinSamples: 1, TemplatePaths: true})
		k := c.Observe("svc", "get", path)
		if got := c.Classify("svc", "get", path); got != k.String() {
			t.Fatalf("Classify(%q) = %q after Observe, want %q", path, got, k.String())
		}
		if c.counts[k] != 1 {
			t.Fatalf("count of %v = %d after one Observe", k, c.counts[k])
		}
	})
}
