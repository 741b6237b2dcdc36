//go:build race

package main

// raceEnabled reports that the race detector is on; it makes sync.Pool
// drop a fraction of its items, so allocation ceilings over a pooled
// slice cannot hold.
const raceEnabled = true
