//go:build !linux

package core

// mapRegion returns size bytes of zeroed heap memory: off Linux a frozen
// index's region is an ordinary allocation, which the collector frees.
func mapRegion(size int) (mem []byte, mapped bool) { return make([]byte, size), false }

// unmapRegion is never called: no region is mapped.
func unmapRegion([]byte) {}
