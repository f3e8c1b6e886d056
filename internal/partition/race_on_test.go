//go:build race

package partition

// raceEnabled reports that the race detector instruments this build:
// sync.Pool drops a share of what is put back, so a scratch buffer is
// allocated again and allocation totals are not those of the shipped code.
const raceEnabled = true
