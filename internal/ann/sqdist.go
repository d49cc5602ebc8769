package ann

// sqDistGo returns the squared L2 distance between a and b[:len(a)] in the
// summation order every sqDist path shares: the first len(a)&^7 dimensions
// go round-robin into eight lanes, each summed in ascending order, the lanes
// are reduced as ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)), and the remaining
// dimensions are added to that in ascending order. It is the fallback for
// hosts without AVX2 and the test oracle of the assembly kernel. The
// float32 conversions round each square before its add, so the compiler
// cannot fuse the two into an FMA the kernel does not do.
func sqDistGo(a, b []float32) float32 {
	b = b[:len(a)]
	n8 := len(a) &^ 7
	var l0, l1, l2, l3, l4, l5, l6, l7 float32
	for i := 0; i < n8; i += 8 {
		x, y := (*[8]float32)(a[i:]), (*[8]float32)(b[i:])
		d0, d1, d2, d3 := x[0]-y[0], x[1]-y[1], x[2]-y[2], x[3]-y[3]
		d4, d5, d6, d7 := x[4]-y[4], x[5]-y[5], x[6]-y[6], x[7]-y[7]
		l0 += float32(d0 * d0)
		l1 += float32(d1 * d1)
		l2 += float32(d2 * d2)
		l3 += float32(d3 * d3)
		l4 += float32(d4 * d4)
		l5 += float32(d5 * d5)
		l6 += float32(d6 * d6)
		l7 += float32(d7 * d7)
	}
	s := ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7))
	return addTail(s, a[n8:], b[n8:])
}

// addTail adds the squared differences of a and b to s in ascending order.
func addTail(s float32, a, b []float32) float32 {
	b = b[:len(a)]
	for i := range a {
		d := a[i] - b[i]
		s += float32(d * d)
	}
	return s
}
