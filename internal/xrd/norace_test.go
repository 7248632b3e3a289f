//go:build !race

package xrd

// raceEnabled reports a -race build, whose sync.Pool drops pooled items
// at random, so a pool-backed 0-alloc gate measures the race runtime.
const raceEnabled = false
