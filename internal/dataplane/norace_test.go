//go:build !race

package dataplane

// raceEnabled reports a -race build, under which allocation counts vary.
const raceEnabled = false
