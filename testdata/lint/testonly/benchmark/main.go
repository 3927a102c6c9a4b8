// Command benchmark is the fixture's nested benchmark module: its uses
// of lib count.
package main

import "example.com/testonly/internal/lib"

func main() {
	var c lib.Config
	enable(&c.Verbose)
	c.Size = lib.UsedByBench()
	c.Describe()
}

// enable stands in for a flag bound to a config field.
func enable(b *bool) { *b = true }
