package xtest

// Size exposes the unexported field to the external tests.
func (w Widget) Size() int { return w.n }
