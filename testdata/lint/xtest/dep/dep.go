// Package dep imports the fixture package, so the external test sees
// xtest.Widget both directly and through dep.
package dep

import "github.com/servicelayernetworking/slate/testdata/lint/xtest"

// Make returns a widget of size 3.
func Make() xtest.Widget { return xtest.New(3) }
