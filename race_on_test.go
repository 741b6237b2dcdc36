//go:build race

package adindex

// raceEnabled reports that the race detector is on; it makes sync.Pool
// drop a fraction of its items, so allocation contracts over the pooled
// query scratch cannot hold.
const raceEnabled = true
