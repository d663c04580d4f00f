//go:build !race

package recovery

// raceEnabled reports whether the race detector is compiled in: its
// shadow memory makes runtime.MemStats useless as an allocation bound.
const raceEnabled = false
