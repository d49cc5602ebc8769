//go:build !amd64

package prefetch

import "unsafe"

// Line does nothing off amd64.
func Line(p unsafe.Pointer) {}
