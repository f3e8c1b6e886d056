//go:build race

package core

// raceEnabled reports that the race detector instruments this build: it
// defeats escape analysis in places, so allocation counts are not those
// of the shipped code.
const raceEnabled = true
