// Package fixture exercises the floatcmp analyzer.
package fixture

import "math"

const eps = 1e-9

func weightsEqual(a, b float64) bool {
	return a == b // want `== on float operands is exact`
}

func distributionSums(weights []float64) bool {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	return sum != 1.0 // want `!= on float operands is exact`
}

func mixed(x float32) bool {
	return x == 0.5 // want `== on float operands is exact`
}

func viaInterface(v any) bool {
	f, ok := v.(float64)
	return ok && f == 3.14 // want `== on float operands is exact`
}

// almostEqual is the sanctioned form: no finding.
func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= eps*(1+math.Abs(b))
}

// constFold compares two constants; exact comparison folds at compile
// time and is fine.
func constFold() bool {
	return 0.5 == 1.0/2.0
}

// intsAreExact: integer equality is untouched.
func intsAreExact(a, b int) bool {
	return a == b
}

// sentinel is a deliberate exception, annotated with the reason.
func sentinel(weight float64) bool {
	return weight == 0 //slate:nolint floatcmp -- zero means "unset", assigned literally
}

// trailingCoversItsLine: a directive at the end of a code line covers
// that line only, so the unreviewed compare below it is still flagged.
func trailingCoversItsLine(weight, other float64) bool {
	unset := weight == 0 //slate:nolint floatcmp -- zero means "unset", assigned literally
	same := weight == other // want `== on float operands is exact`
	return unset || same
}

// aloneCoversNextLine: a directive alone on its line covers the line
// below it.
func aloneCoversNextLine(weight float64) bool {
	//slate:nolint floatcmp -- zero means "unset", assigned literally
	return weight == 0
}

// gluedIsNotADirective: the prefix must be followed by whitespace or
// the end of the comment.
func gluedIsNotADirective(weight float64) bool {
	//slate:nolintfloatcmp -- zero means "unset", assigned literally
	return weight == 0 // want `== on float operands is exact`
}
