// Package lib is the testonly fixture: exported API, some of it used by
// cmd/ or benchmark/, some only by lib_test.go.
package lib

// Used is called from cmd/tool.
func Used() int { return 1 }

// UsedByBench is called only from the nested benchmark module, which
// counts as a user.
func UsedByBench() int { return 2 }

// OnlyTests has no caller outside lib_test.go.
func OnlyTests() int { return 3 } // want `lib\.OnlyTests is used only by tests`

// Seam is a test seam, kept on purpose.
func Seam() {} //slate:nolint testonly -- fixture seam: lib_test.go drives it

// helper is unexported: not API, never flagged.
func helper() int { return 4 }

// T is an exported type.
type T struct{}

// Method has no caller outside lib_test.go.
func (T) Method() int { return helper() } // want `lib\.T\.Method is used only by tests`

// Read satisfies io.Reader: cmd/tool hands a T to io.Copy, so no
// identifier names the method, yet it runs.
func (T) Read(p []byte) (int, error) { return 0, nil }

// Box is generic; cmd/tool calls Get on an instantiation.
type Box[E any] struct{ v E }

// Get is called on lib.Box[int]: the instantiated method is this one.
func (b *Box[E]) Get() E { return b.v }

// Put has no caller outside lib_test.go.
func (b *Box[E]) Put(v E) { b.v = v } // want `lib\.Box\.Put is used only by tests`

// Config holds options.
type Config struct {
	// Size is set by cmd/tool.
	Size int
	// Name is set by cmd/tool through an assignment.
	Name string
	// Debug is set only by lib_test.go; production reads it.
	Debug bool // want `Config\.Debug is set only by tests`
	// Verbose is set by the benchmark through a pointer.
	Verbose bool
}

// Describe reads every field, so being read is not being set.
func (c Config) Describe() (int, string, bool, bool) {
	return c.Size, c.Name, c.Debug, c.Verbose
}
