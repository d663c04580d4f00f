//go:build !race

package cluster

// raceEnabled reports whether the race detector is compiled in. The
// relay's allocation and cost guards skip under -race: the detector's
// shadow-memory instrumentation allocates on paths that are
// allocation-free in a normal build, and slows them unevenly.
const raceEnabled = false
