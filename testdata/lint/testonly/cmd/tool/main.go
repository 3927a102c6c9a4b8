// Command tool is the fixture's production user of lib.
package main

import (
	"io"

	"example.com/testonly/internal/lib"
)

func main() {
	io.Copy(io.Discard, lib.T{})
	var b lib.Box[int]
	c := lib.Config{Size: lib.Used() + b.Get()}
	c.Name = "tool"
	c.Describe()
}
