//go:build race

package nettransport

const raceEnabled = true
