// Package xtest is a loader fixture: an external test package that
// reaches, directly and through another package, what the in-package
// test files export for it (the export_test.go idiom).
package xtest

// Widget has a field only the package's own files can read.
type Widget struct{ n int }

// New returns a widget of size n.
func New(n int) Widget { return Widget{n} }
