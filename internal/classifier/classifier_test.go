package classifier

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestTemplatePath(t *testing.T) {
	tests := []struct{ in, want string }{
		{"/user/123/cart", "/user/:id/cart"},
		{"/user/456/cart", "/user/:id/cart"},
		{"/metrics/query", "/metrics/query"},
		{"/order/550e8400-e29b-41d4-a716-446655440000", "/order/:id"},
		{"/blob/deadbeef1234cafe", "/blob/:id"},
		{"/api/v2/items", "/api/v2/items"}, // "v2" is not an ID
		{"", "/"},
		{"/", "/"},
		{"/a/b/c", "/a/b/c"},
		{"/42", "/:id"},
		{"/abc", "/abc"},   // short hex-only letters, no digits
		{"/cafe", "/cafe"}, // looks like a word
		{"/2fa", "/2fa"},   // short mixed
		{"/0", "/:id"},     // single digit
		{"/items/12/sub/34", "/items/:id/sub/:id"},
	}
	for _, tc := range tests {
		if got := TemplatePath(tc.in); got != tc.want {
			t.Errorf("TemplatePath(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestTemplatePathIdempotent(t *testing.T) {
	f := func(parts []uint16) bool {
		path := ""
		for _, p := range parts {
			path += fmt.Sprintf("/seg%d/%d", p%7, p)
		}
		once := TemplatePath(path)
		return TemplatePath(once) == once
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestClassifyBelowMinSamplesIsFallback(t *testing.T) {
	c := New(Options{MinSamples: 3})
	if got := c.Classify("svc", "GET", "/x"); got != Fallback {
		t.Errorf("unseen class = %q, want fallback", got)
	}
	c.Observe("svc", "GET", "/x")
	c.Observe("svc", "GET", "/x")
	if got := c.Classify("svc", "GET", "/x"); got != Fallback {
		t.Errorf("2 samples with MinSamples=3 = %q, want fallback", got)
	}
	c.Observe("svc", "GET", "/x")
	want := Key{"svc", "GET", "/x"}.String()
	if got := c.Classify("svc", "GET", "/x"); got != want {
		t.Errorf("3 samples = %q, want %q", got, want)
	}
}

func TestClassifyMethodCaseInsensitive(t *testing.T) {
	c := New(Options{})
	c.Observe("svc", "get", "/x")
	if got := c.Classify("svc", "GET", "/x"); got == Fallback {
		t.Error("method case should not split classes")
	}
}

func TestClassesPerServiceIsolation(t *testing.T) {
	c := New(Options{MinSamples: 1})
	c.Observe("a", "GET", "/x")
	c.Observe("b", "GET", "/y")
	if got := c.Classify("a", "GET", "/x"); got == Fallback {
		t.Error("service a's only class should be eligible")
	}
	if got := c.Classify("b", "GET", "/y"); got == Fallback {
		t.Error("service b's only class should be eligible")
	}
	if n := len(c.Classes("a")); n != 1 {
		t.Errorf("Classes(a) = %d, want 1", n)
	}
}

func TestTemplatingMergesIDs(t *testing.T) {
	c := New(Options{MinSamples: 2, TemplatePaths: true})
	c.Observe("svc", "GET", "/user/1")
	c.Observe("svc", "GET", "/user/2")
	// Each raw path seen once, but the template has two samples.
	if got := c.Classify("svc", "GET", "/user/3"); got == Fallback {
		t.Errorf("templated class should have 2 samples and be eligible, got %q", got)
	}
	if n := c.Count(Key{"svc", "GET", "/user/:id"}); n != 2 {
		t.Errorf("count = %d, want 2", n)
	}
}

func TestObserveReturnsKey(t *testing.T) {
	c := New(Options{TemplatePaths: true})
	k := c.Observe("svc", "post", "/order/99")
	want := Key{Service: "svc", Method: "POST", Path: "/order/:id"}
	if k != want {
		t.Errorf("Observe key = %+v, want %+v", k, want)
	}
}

func TestKeyString(t *testing.T) {
	k := Key{"svc", "GET", "/x"}
	if k.String() != "svc|GET /x" {
		t.Errorf("String = %q", k.String())
	}
}

func TestConcurrentObserveClassify(t *testing.T) {
	c := New(Options{MinSamples: 1, TemplatePaths: true})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Observe("svc", "GET", fmt.Sprintf("/p%d/%d", g%3, i))
				c.Classify("svc", "GET", "/p0/1")
				c.Classes("svc")
			}
		}(g)
	}
	wg.Wait()
	// 3 distinct templated paths must exist.
	if n := len(c.Classes("svc")); n != 3 {
		t.Errorf("Classes = %d, want 3", n)
	}
}

func TestCountUnknownIsZero(t *testing.T) {
	c := New(Options{})
	if n := c.Count(Key{"x", "GET", "/"}); n != 0 {
		t.Errorf("Count = %d, want 0", n)
	}
}

func TestClassesDeterministicTieBreak(t *testing.T) {
	c := New(Options{MinSamples: 1})
	c.Observe("svc", "GET", "/b")
	c.Observe("svc", "GET", "/a")
	got := c.Classes("svc")
	if len(got) != 2 || got[0].Path != "/a" || got[1].Path != "/b" {
		t.Errorf("equal-count classes should sort lexicographically, got %v", got)
	}
}
