// Package prefetch asks the processor to start loading memory into its
// caches ahead of use, so that a loop over independent objects can overlap
// their cache misses instead of waiting on each in turn. A prefetch is a
// hint: it never faults, changes no memory and may be dropped, so a caller
// stays correct whatever the processor does with it. Off amd64 every call
// is a no-op.
package prefetch

import "unsafe"

// lineSize is the cache line size assumed when prefetching an object.
const lineSize = 64

// Object prefetches every cache line of the size-byte object at p. size
// must be at least 1 and p must point to at least size bytes.
func Object(p unsafe.Pointer, size uintptr) {
	for off := uintptr(0); off < size; off += lineSize {
		Line(unsafe.Add(p, off))
	}
	Line(unsafe.Add(p, size-1))
}
