package prefetch

import (
	"testing"
	"unsafe"
)

// TestPrefetchLeavesMemoryAlone: prefetching a line, and every line of
// objects that start at each offset within a line, changes no byte.
func TestPrefetchLeavesMemoryAlone(t *testing.T) {
	buf := make([]byte, 4*lineSize)
	for i := range buf {
		buf[i] = byte(i)
	}
	for off := 0; off < lineSize; off++ {
		for _, size := range []uintptr{1, lineSize - 1, lineSize, lineSize + 1, 2*lineSize + 3} {
			Object(unsafe.Pointer(&buf[off]), size)
		}
		Line(unsafe.Pointer(&buf[off]))
	}
	for i := range buf {
		if buf[i] != byte(i) {
			t.Fatalf("byte %d changed to %d", i, buf[i])
		}
	}
}
