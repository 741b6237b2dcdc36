package core

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// A frozen index (NewFrozen) keeps its pointer-free parts — the record
// columns, the word IDs, the node table, the probe table's four arrays,
// and the vocabulary's table and successor filters — in one region of
// memory outside the Go heap, so the collector neither
// scans them nor counts them toward its heap goal. The region is laid out
// as a header of uint64 words — regionMagic, the section count, then each
// section's offset and length in bytes — followed by the sections, one
// per column, each at a cache-line boundary. The loader writes every
// column in place at its final size; a column is a typed view of its
// section (unsafe.Slice).
//
// The text arena stays on the heap: copied-out phrases and exclusions
// alias it (AppendAd), so the collector keeps it alive for as long as any
// reply or caller holds one of them. The vocabulary's words and the
// mapping hold strings and stay on the heap too, as do the words'
// frequencies and signature bits.
//
// A region is released when its index becomes unreachable: a finalizer on
// the region, which only its index references, unmaps it. Refs are
// integers, so nothing outside a call into the index holds region memory;
// every method that reads a column ends in runtime.KeepAlive(ix), so the
// index outlives the reads it makes.

// regionMagic opens a region's header: "adixreg1".
const regionMagic = 0x6164697872656731

// regionAlign is the alignment of every section: a cache line.
const regionAlign = 64

// offHeapBytes is the size of every region mapped and not yet unmapped.
var offHeapBytes atomic.Int64

// OffHeapBytes returns the bytes of index memory mapped outside the Go
// heap: the regions of frozen indexes, from their mapping until the
// collector has found their index unreachable and unmapped them. It is 0
// where regions are heap memory (every platform but Linux).
func OffHeapBytes() int64 { return offHeapBytes.Load() }

// region is the memory of a frozen index's pointer-free parts.
type region struct {
	mem    []byte
	mapped bool // mem is a mapping, not a heap slice
}

// newRegion lays out sections of the given byte sizes behind a header and
// returns the zeroed region holding them.
func newRegion(sizes []int) *region {
	at := (2 + 2*len(sizes)) * 8
	offs := make([]int, len(sizes))
	for i, n := range sizes {
		at = (at + regionAlign - 1) &^ (regionAlign - 1)
		offs[i], at = at, at+n
	}
	r := &region{}
	r.mem, r.mapped = mapRegion(at)
	if r.mapped {
		offHeapBytes.Add(int64(len(r.mem)))
		runtime.SetFinalizer(r, (*region).release)
	}
	h := r.header(2 + 2*len(sizes))
	h[0], h[1] = regionMagic, uint64(len(sizes))
	for i, n := range sizes {
		h[2+2*i], h[3+2*i] = uint64(offs[i]), uint64(n)
	}
	return r
}

// release unmaps the region. Only the finalizer calls it.
func (r *region) release() {
	unmapRegion(r.mem)
	offHeapBytes.Add(-int64(len(r.mem)))
}

// header returns the first n words of the region's header.
func (r *region) header(n int) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(&r.mem[0])), n)
}

// section returns section i of the region, where its header places it.
func (r *region) section(i int) []byte {
	h := r.header(4 + 2*i)
	off, n := h[2+2*i], h[3+2*i]
	return r.mem[off : off+n]
}

// columns hands the loader its pointer-free columns at their final sizes
// (carve), in one order: fresh heap slices for an index that takes
// Inserts and Deletes; for a frozen one, views of the sections of one
// region, which a first pass over the same calls sized.
type columns struct {
	frozen bool
	sizes  []int   // the sizing pass: each column's bytes, in call order
	r      *region // the second pass: the region
	next   int
}

// carve returns the next column, of n elements of T. The sizing pass of a
// frozen build records its size and returns nil.
func carve[T any](c *columns, n int) []T {
	if !c.frozen {
		return make([]T, n)
	}
	if c.r == nil {
		c.sizes = append(c.sizes, n*int(unsafe.Sizeof(*new(T))))
		return nil
	}
	sec := c.r.section(c.next)
	c.next++
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&sec[0])), n)
}
