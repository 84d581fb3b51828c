//go:build !race

package racesim

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
