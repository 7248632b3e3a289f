//go:build !race

package main

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false
