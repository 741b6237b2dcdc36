//go:build linux

package core

import "syscall"

// mapRegion returns size bytes of zeroed memory from an anonymous private
// mapping, or from the heap if the kernel refuses one.
func mapRegion(size int) (mem []byte, mapped bool) {
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]byte, size), false
	}
	return mem, true
}

// unmapRegion unmaps memory mapRegion mapped.
func unmapRegion(mem []byte) {
	if err := syscall.Munmap(mem); err != nil {
		panic("core: unmapping an index region: " + err.Error())
	}
}
