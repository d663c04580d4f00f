//go:build !race

package nettransport

// raceEnabled reports whether the race detector is compiled in: its
// instrumentation allocates, so allocation guards skip under it.
const raceEnabled = false
