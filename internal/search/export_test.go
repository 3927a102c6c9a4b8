package search

// LowerBound returns o's certified lower bound on the optimal objective
// of the bound instance.
func LowerBound(o *Optimizer) float64 {
	o.refresh()
	return o.lowerBound
}
