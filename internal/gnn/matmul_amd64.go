//go:build amd64

package gnn

import "platod2gl/internal/cpufeat"

// hasAVX2 reports whether the processor has AVX2 and the operating system
// saves the YMM registers. Without it the kernels run the pure-Go code.
var hasAVX2 = cpufeat.AVX2()

//go:noescape
func pairAVX2(o0, o1, a0, a1 *float32, as int, b *float32, bs, k, n int)

//go:noescape
func poolAVX2(o *float32, os int, x *float32, xs int, rows *int32, groups, fanout int, inv float32, n int)

//go:noescape
func reluAVX2(x *float32, n int)

//go:noescape
func reluBackAVX2(d, out *float32, n int)

func matMul(out, a, b *Matrix) {
	if !hasAVX2 {
		matMulGo(out, a, b)
		return
	}
	mulRowsAVX2(out, a.Data, a.Cols, 1, b)
}

func matMulAT(out, a, b *Matrix) {
	if !hasAVX2 {
		matMulATGo(out, a, b)
		return
	}
	mulRowsAVX2(out, a.Data, 1, a.Cols, b)
}

// kBlock is how many terms pairAVX2 sums per call: a block of MatMulAT's
// strided input (kBlock rows of a 64-wide a) and of b stays in the L1 cache
// while every output row pair passes over it.
const kBlock = 64

// mulRowsAVX2 adds Σ_k a[i·rs+k·as]·b[k][j] to out[i][j], in ascending k,
// for every output row i: MatMul is rs = a.Cols, as = 1, and MatMulAT,
// whose rows are a's columns, rs = 1, as = a.Cols. Row pairs go through
// pairAVX2 over the columns up to the last multiple of 8, kBlock terms per
// call; the remaining columns and a last odd row take addRow. Splitting k
// into blocks stores and reloads the partial sums exactly, so every
// element still gets its terms one add at a time in ascending k.
func mulRowsAVX2(out *Matrix, a []float32, rs, as int, b *Matrix) {
	k, n8 := b.Rows, b.Cols&^7
	if k == 0 {
		return
	}
	pairs := out.Rows / 2
	if n8 > 0 {
		for k0 := 0; k0 < k; k0 += kBlock {
			kn := min(kBlock, k-k0)
			for p := 0; p < pairs; p++ {
				i := 2 * p
				pairAVX2(&out.Data[i*out.Cols], &out.Data[(i+1)*out.Cols], &a[i*rs+k0*as], &a[(i+1)*rs+k0*as], as,
					&b.Data[k0*b.Cols], b.Cols, kn, n8)
			}
		}
	}
	for i := 0; i < out.Rows; i++ {
		lo := n8
		if i == 2*pairs {
			lo = 0
		}
		if lo == b.Cols {
			continue
		}
		o := out.Row(i)[lo:]
		for kk := 0; kk < k; kk++ {
			addRow(o, a[i*rs+kk*as], b.Row(kk)[lo:])
		}
	}
}

// meanPool adds to out's row g the mean of the fanout positions of group g,
// position p reading x's row rows[p] (row p when rows is nil). The columns
// up to the last multiple of 8 go through poolAVX2, the rest through
// addRow, each element summing inv·x over its group in position order.
func meanPool(out, x *Matrix, rows []int32, fanout int) {
	n8 := x.Cols &^ 7
	if !hasAVX2 || n8 == 0 || out.Rows == 0 {
		meanPoolGo(out, x, rows, fanout)
		return
	}
	inv := 1 / float32(fanout)
	var r0 *int32
	if rows != nil {
		checkRows(rows, x.Rows)
		r0 = &rows[0]
	}
	poolAVX2(&out.Data[0], out.Cols, &x.Data[0], x.Cols, r0, out.Rows, fanout, inv, n8)
	if n8 == x.Cols {
		return
	}
	for g := 0; g < out.Rows; g++ {
		o := out.Row(g)[n8:]
		for p := g * fanout; p < (g+1)*fanout; p++ {
			r := p
			if rows != nil {
				r = int(rows[p])
			}
			addRow(o, inv, x.Row(r)[n8:])
		}
	}
}

// relu runs reluAVX2 over the elements up to the last multiple of 8 and
// reluGo over the rest.
func relu(x []float32) {
	n8 := len(x) &^ 7
	if !hasAVX2 || n8 == 0 {
		reluGo(x)
		return
	}
	reluAVX2(&x[0], n8)
	reluGo(x[n8:])
}

// reluBackward runs reluBackAVX2 over the elements up to the last multiple
// of 8 and reluBackwardGo over the rest.
func reluBackward(d, out []float32) {
	d = d[:len(out)]
	n8 := len(out) &^ 7
	if !hasAVX2 || n8 == 0 {
		reluBackwardGo(d, out)
		return
	}
	reluBackAVX2(&d[0], &out[0], n8)
	reluBackwardGo(d[n8:], out[n8:])
}
