//go:build !race

package pcp

// raceEnabled reports whether the race detector is compiled in; the
// allocation guards skip under it, since its instrumentation allocates
// on paths that are allocation-free in a normal build.
const raceEnabled = false
