package prefetch

import "unsafe"

// Line prefetches the cache line holding p into every cache level
// (PREFETCHT0).
//
//go:noescape
func Line(p unsafe.Pointer)
