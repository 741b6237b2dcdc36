//go:build race

package corpus

// raceEnabled reports that the race detector is on; it instruments every
// allocation, so heap sizes measured under it are not the program's.
const raceEnabled = true
