package xtest_test

import (
	"testing"

	"github.com/servicelayernetworking/slate/testdata/lint/xtest"
	"github.com/servicelayernetworking/slate/testdata/lint/xtest/dep"
)

func TestSize(t *testing.T) {
	var w xtest.Widget = dep.Make()
	if w.Size() != 3 {
		t.Fatal("size")
	}
}
