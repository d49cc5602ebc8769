//go:build amd64

package ann

import "platod2gl/internal/cpufeat"

// hasAVX2 reports whether the processor has AVX2 and the operating system
// saves the YMM registers. Without it sqDist runs the pure-Go code.
var hasAVX2 = cpufeat.AVX2()

// sqDistAVX2 returns the eight-lane sum of sqDistGo over a[:n] and b[:n], n
// a multiple of 8, reduced in sqDistGo's order.
//
//go:noescape
func sqDistAVX2(a, b *float32, n int) float32

// sqDist returns the squared L2 distance between two equal-length vectors:
// the lanes in sqDistAVX2 when the host has AVX2, the rest in addTail. The
// bits are sqDistGo's.
func sqDist(a, b []float32) float32 {
	b = b[:len(a)]
	n8 := len(a) &^ 7
	if !hasAVX2 || n8 == 0 {
		return sqDistGo(a, b)
	}
	return addTail(sqDistAVX2(&a[0], &b[0], n8), a[n8:], b[n8:])
}
