//go:build !race

package papimc_test

// raceEnabled reports whether the race detector is compiled in; the
// allocation gates skip under it, since its instrumentation allocates
// on paths that allocate less in a normal build.
const raceEnabled = false
