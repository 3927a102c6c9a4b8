package analysis

// All returns every registered analyzer, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Ctxprop,
		Detorder,
		Detrand,
		Floatcmp,
		Hotalloc,
		Lockguard,
		Lockorder,
		Testonly,
	}
}

// ByName returns the named analyzers, or an error-free nil slice entry
// omission: unknown names are reported by the caller (the driver main).
func ByName(names []string) (found []*Analyzer, unknown []string) {
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	for _, n := range names {
		if a, ok := byName[n]; ok {
			found = append(found, a)
		} else {
			unknown = append(unknown, n)
		}
	}
	return found, unknown
}
