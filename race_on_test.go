//go:build race

package papimc_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
