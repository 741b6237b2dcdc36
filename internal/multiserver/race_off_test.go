//go:build !race

package multiserver

const raceEnabled = false
