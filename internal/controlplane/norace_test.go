//go:build !race

package controlplane

// raceEnabled reports a -race build, under which allocation counts vary.
const raceEnabled = false
