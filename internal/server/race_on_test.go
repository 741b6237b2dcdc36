//go:build race

package server

// raceEnabled reports that the race detector is on; it makes sync.Pool
// drop a fraction of its items, so allocation ceilings over the pooled
// match scratch cannot hold.
const raceEnabled = true
