package lib

import "testing"

func TestEverything(t *testing.T) {
	var b Box[string]
	b.Put("x")
	Seam()
	c := Config{Debug: true}
	if OnlyTests()+(T{}).Method() == 0 || b.Get() != "x" || !c.Debug {
		t.Fatal("unreachable")
	}
}
