// Package classifier derives traffic classes from request attributes.
//
// SLATE partitions the requests seen at each service into traffic
// classes so the optimizer can make per-class routing decisions (paper
// §3.3 "Deriving Classes"). The paper's heuristic — which this package
// implements — keys classes on (1) the service being called and (2) the
// action invoked on it, concretely the HTTP method and path. Because an
// unbounded number of classes would starve each class of samples and
// blow up the optimizer, the classifier bounds cardinality two ways:
// high-cardinality path segments (IDs, hashes) are templated away, and
// classes that stay below a sample threshold are folded into a fallback
// aggregate class.
package classifier

import (
	"sort"
	"strings"
	"sync"
)

// Key identifies a traffic class: the service plus the normalized
// endpoint.
type Key struct {
	Service string
	Method  string
	Path    string // templated path, e.g. /user/:id/cart
}

func (k Key) String() string {
	return k.Service + "|" + k.Method + " " + k.Path
}

// Fallback is the class name given to requests whose own class has not
// yet accumulated enough samples to be routed independently.
const Fallback = "__default__"

// Options configures a Classifier.
type Options struct {
	// MinSamples is the number of observations a class needs before
	// Classify reports it as its own class rather than Fallback. The
	// paper: "limiting the number of classes is required to have enough
	// observations to accurately characterize average behavior".
	// Zero means 1 (every observed class is immediately eligible).
	MinSamples int
	// TemplatePaths enables ID templating of path segments.
	TemplatePaths bool
}

// Classifier assigns requests to traffic classes and tracks observation
// counts. Safe for concurrent use: the data plane classifies on the
// request hot path while the control plane reads snapshots.
type Classifier struct {
	opt Options

	mu     sync.RWMutex
	counts map[Key]uint64
}

// New returns a Classifier with the given options.
func New(opt Options) *Classifier {
	if opt.MinSamples <= 0 {
		opt.MinSamples = 1
	}
	return &Classifier{opt: opt, counts: make(map[Key]uint64)}
}

// Observe records a request and returns the class key it was assigned
// (after path templating).
func (c *Classifier) Observe(service, method, path string) Key {
	k := c.key(service, method, path)
	c.mu.Lock()
	c.counts[k]++
	c.mu.Unlock()
	return k
}

// Classify returns the class name for a request: the key's string form
// once the class has enough samples, otherwise Fallback. Classify does
// not record an observation.
func (c *Classifier) Classify(service, method, path string) string {
	k := c.key(service, method, path)
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.counts[k] < uint64(c.opt.MinSamples) {
		return Fallback
	}
	return k.String()
}

// Classes returns the eligible classes for a service, most-observed
// first, respecting MinSamples.
func (c *Classifier) Classes(service string) []Key {
	c.mu.RLock()
	defer c.mu.RUnlock()
	type kc struct {
		k Key
		n uint64
	}
	var all []kc
	for key, n := range c.counts {
		if key.Service == service && n >= uint64(c.opt.MinSamples) {
			all = append(all, kc{key, n})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].k.String() < all[j].k.String()
	})
	out := make([]Key, len(all))
	for i, e := range all {
		out[i] = e.k
	}
	return out
}

// Count returns the number of observations for the exact class key.
func (c *Classifier) Count(k Key) uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.counts[k]
}

func (c *Classifier) key(service, method, path string) Key {
	p := path
	if c.opt.TemplatePaths {
		p = TemplatePath(path)
	}
	return Key{Service: service, Method: strings.ToUpper(method), Path: p}
}

// TemplatePath replaces path segments that look like identifiers —
// numbers, UUIDs, long hex strings — with ":id", bounding class
// cardinality. "/user/123/cart" and "/user/456/cart" fall in one class.
func TemplatePath(path string) string {
	if path == "" {
		return "/"
	}
	segs := strings.Split(path, "/")
	changed := false
	for i, s := range segs {
		if isIDSegment(s) {
			segs[i] = ":id"
			changed = true
		}
	}
	if !changed {
		return path
	}
	return strings.Join(segs, "/")
}

func isIDSegment(s string) bool {
	if s == "" {
		return false
	}
	digits, hexd := 0, 0
	for i := 0; i < len(s); i++ {
		ch := s[i]
		switch {
		case ch >= '0' && ch <= '9':
			digits++
			hexd++
		case ch >= 'a' && ch <= 'f' || ch >= 'A' && ch <= 'F':
			hexd++
		case ch == '-':
			// allowed in UUIDs
		default:
			return false
		}
	}
	if digits == len(s) {
		return true // pure number
	}
	// UUID-ish: 8-4-4-4-12 with hyphens, or long hex token.
	if strings.Count(s, "-") == 4 && len(s) == 36 && hexd == 32 {
		return true
	}
	return hexd == len(s) && len(s) >= 12 && digits > 0
}
