// Package gnn is the "TF-based operators layer" substitute of this
// reproduction (Fig. 2, top): dense float32 tensors with the handful of
// operators GraphSAGE-style training needs (matmul, bias, ReLU, mean
// pooling over fixed-fanout neighbor groups, softmax cross-entropy), manual
// backpropagation, an Adam optimizer, and a mini-batch trainer that consumes
// PlatoD2GL's samplers. Eq. (1) of the paper — aggregate neighbor messages,
// combine with the self embedding — maps to the SAGELayer.
package gnn

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// NewMatrixFrom wraps data (retained, not copied) as a rows×cols matrix.
func NewMatrixFrom(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("gnn: data length %d != %d x %d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Glorot fills the matrix with Glorot-uniform initial weights.
func (m *Matrix) Glorot(rng *rand.Rand) *Matrix {
	limit := float32(math.Sqrt(6.0 / float64(m.Rows+m.Cols)))
	for i := range m.Data {
		m.Data[i] = (rng.Float32()*2 - 1) * limit
	}
	return m
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Row returns row r as a shared slice.
func (m *Matrix) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Zero clears the matrix in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MatMul computes a·b into a fresh (a.Rows × b.Cols) matrix. Each output
// element sums a[i][k]·b[k][j] in ascending k, one float32 multiply and one
// float32 add per term, whichever kernel runs.
func MatMul(a, b *Matrix) *Matrix {
	return matMulInto(NewMatrix(a.Rows, b.Cols), a, b)
}

// matMulInto is MatMul into out, which must be zeroed and a.Rows × b.Cols.
func matMulInto(out, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("gnn: matmul shape mismatch (%dx%d)·(%dx%d) into %dx%d", a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	matMul(out, a, b)
	return out
}

// reuse returns m reshaped to rows×cols and zeroed when its array has room,
// and a new zero matrix otherwise: a buffer kept from one training step to
// the next.
func reuse(m *Matrix, rows, cols int) *Matrix {
	if m == nil || cap(m.Data) < rows*cols {
		return NewMatrix(rows, cols)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
	clear(m.Data)
	return m
}

// MatMulAT computes aᵀ·b (a is k×m, b is k×n, result m×n) — the weight
// gradient shape in backprop. Each output element sums a[k][i]·b[k][j] in
// ascending k, one float32 multiply and one float32 add per term.
func MatMulAT(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("gnn: matmulAT shape mismatch (%dx%d)ᵀ·(%dx%d)", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Cols, b.Cols)
	matMulAT(out, a, b)
	return out
}

// matMulGo is MatMul's pure-Go kernel, into a zeroed out: the fallback
// without AVX2 and the oracle the vector kernel is tested against. Rows go
// in pairs and k in fours through addTile; a last odd row or k takes
// addRow.
func matMulGo(out, a, b *Matrix) {
	i := 0
	for ; i+2 <= a.Rows; i += 2 {
		a0, a1 := a.Row(i), a.Row(i+1)
		o0, o1 := out.Row(i), out.Row(i+1)
		k := 0
		for ; k+4 <= len(a0); k += 4 {
			addTile(o0, o1, a0[k], a0[k+1], a0[k+2], a0[k+3], a1[k], a1[k+1], a1[k+2], a1[k+3],
				b.Row(k), b.Row(k+1), b.Row(k+2), b.Row(k+3))
		}
		for ; k < len(a0); k++ {
			addRow(o0, a0[k], b.Row(k))
			addRow(o1, a1[k], b.Row(k))
		}
	}
	if i < a.Rows {
		orow := out.Row(i)
		for k, av := range a.Row(i) {
			addRow(orow, av, b.Row(k))
		}
	}
}

// matMulATGo is MatMulAT's pure-Go kernel, into a zeroed out, tiled like
// matMulGo.
func matMulATGo(out, a, b *Matrix) {
	k := 0
	for ; k+4 <= a.Rows; k += 4 {
		a0, a1, a2, a3 := a.Row(k), a.Row(k+1), a.Row(k+2), a.Row(k+3)
		b0, b1, b2, b3 := b.Row(k), b.Row(k+1), b.Row(k+2), b.Row(k+3)
		i := 0
		for ; i+2 <= a.Cols; i += 2 {
			addTile(out.Row(i), out.Row(i+1), a0[i], a1[i], a2[i], a3[i], a0[i+1], a1[i+1], a2[i+1], a3[i+1],
				b0, b1, b2, b3)
		}
		if i < a.Cols {
			addRows4(out.Row(i), a0[i], a1[i], a2[i], a3[i], b0, b1, b2, b3)
		}
	}
	for ; k < a.Rows; k++ {
		arow, brow := a.Row(k), b.Row(k)
		for i, av := range arow {
			addRow(out.Row(i), av, brow)
		}
	}
}

// addTile is the register-blocked step of MatMul and MatMulAT: it adds
// x0·b0[j], x1·b1[j], x2·b2[j], x3·b3[j] to o0[j] and y0·b0[j] … y3·b3[j]
// to o1[j], one float32 add at a time in that order, loading and storing
// each output element once and each b element once for both rows. Every
// output element sees the same adds, in the same order, as four addRow
// calls, so the result is bit-identical to them.
func addTile(o0, o1 []float32, x0, x1, x2, x3, y0, y1, y2, y3 float32, b0, b1, b2, b3 []float32) {
	n := len(o0)
	o1, b0, b1, b2, b3 = o1[:n], b0[:n], b1[:n], b2[:n], b3[:n]
	for j := range o0 {
		s, t := o0[j], o1[j]
		v0, v1, v2, v3 := b0[j], b1[j], b2[j], b3[j]
		s += x0 * v0
		t += y0 * v0
		s += x1 * v1
		t += y1 * v1
		s += x2 * v2
		t += y2 * v2
		s += x3 * v3
		t += y3 * v3
		o0[j], o1[j] = s, t
	}
}

// addRows4 is addTile for one output row: it adds x0·b0[j] … x3·b3[j] to
// o[j] in that order, loading and storing o[j] once.
func addRows4(o []float32, x0, x1, x2, x3 float32, b0, b1, b2, b3 []float32) {
	n := len(o)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	for j, s := range o {
		s += x0 * b0[j]
		s += x1 * b1[j]
		s += x2 * b2[j]
		s += x3 * b3[j]
		o[j] = s
	}
}

// addRow adds av·b[j] to o[j].
func addRow(o []float32, av float32, b []float32) {
	b = b[:len(o)]
	for j, bv := range b {
		o[j] += av * bv
	}
}

// MatMulBT computes a·bᵀ (a is m×k, b is n×k, result m×n) — the input
// gradient shape in backprop. It is MatMul over a transposed copy of b, so
// each output element sums a[i][k]·b[j][k] in ascending k, one float32
// multiply and one float32 add per term, through the vector kernel.
func MatMulBT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("gnn: matmulBT shape mismatch (%dx%d)·(%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	bt := NewMatrix(b.Cols, b.Rows)
	for j := 0; j < b.Rows; j++ {
		for k, v := range b.Row(j) {
			bt.Data[k*bt.Cols+j] = v
		}
	}
	out := NewMatrix(a.Rows, b.Rows)
	matMul(out, a, bt)
	return out
}

// AddInPlace adds b to a elementwise.
func AddInPlace(a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("gnn: AddInPlace shape mismatch")
	}
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// AddBiasRow adds bias (1×cols) to every row of m in place.
func AddBiasRow(m *Matrix, bias *Matrix) {
	if bias.Rows != 1 || bias.Cols != m.Cols {
		panic("gnn: bias shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += bias.Data[j]
		}
	}
}

// ColSum returns the column sums of m as a 1×cols matrix (bias gradient).
func ColSum(m *Matrix) *Matrix {
	out := NewMatrix(1, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j] += v
		}
	}
	return out
}

// ReluInPlace applies max(0, x): every element not above zero becomes +0.
func ReluInPlace(m *Matrix) { relu(m.Data) }

// reluGo is ReluInPlace's pure-Go kernel.
func reluGo(x []float32) {
	for i, v := range x {
		if !(v > 0) {
			x[i] = 0
		}
	}
}

// reluBackwardInPlace is ReLU's backward from its output: it multiplies
// each element of d by 1 where out, ReluInPlace's result, is above zero
// and by 0 elsewhere — the 0/1 mask multiply, without the mask. A negative
// gradient under a zero output becomes −0.
func reluBackwardInPlace(d, out *Matrix) {
	if d.Rows != out.Rows || d.Cols != out.Cols {
		panic("gnn: relu backward shape mismatch")
	}
	reluBackward(d.Data, out.Data)
}

// reluBackwardGo is reluBackwardInPlace's pure-Go kernel. Multiplying by 1
// changes no bits, so it multiplies only by 0.
func reluBackwardGo(d, out []float32) {
	d = d[:len(out)]
	for i, v := range out {
		if !(v > 0) {
			d[i] *= 0
		}
	}
}

// MeanPool groups the rows of child ((n*fanout)×d) into n groups of fanout
// consecutive rows and returns their means (n×d) — the ⊕ neighbor
// aggregation of Eq. (1) with a mean aggregator. Each output element is a
// running sum of (1/fanout)·child over its group in row order.
func MeanPool(child *Matrix, fanout int) *Matrix {
	out := NewMatrix(pooledRows(child.Rows, fanout), child.Cols)
	meanPool(out, child, nil, fanout)
	return out
}

// MeanPoolRows is MeanPool over the rows x[rows[0]], x[rows[1]], … read in
// place through the index: the same adds in the same order as MeanPool of
// GatherRows(x, rows), without materializing the gathered matrix.
func MeanPoolRows(x *Matrix, rows []int32, fanout int) *Matrix {
	return meanPoolInto(nil, x, rows, fanout)
}

// meanPoolInto is MeanPoolRows into out's array when it has room (reuse).
func meanPoolInto(out, x *Matrix, rows []int32, fanout int) *Matrix {
	out = reuse(out, pooledRows(len(rows), fanout), x.Cols)
	meanPool(out, x, rows, fanout)
	return out
}

// pooledRows is the number of groups n positions form at fanout, which
// must divide n.
func pooledRows(n, fanout int) int {
	if fanout <= 0 || n%fanout != 0 {
		panic(fmt.Sprintf("gnn: MeanPool fanout %d does not divide %d rows", fanout, n))
	}
	return n / fanout
}

// checkRows panics unless every index of rows is a row of an n-row matrix,
// as indexing would, before a vector kernel reads through them.
func checkRows(rows []int32, n int) {
	for _, r := range rows {
		if uint32(r) >= uint32(n) {
			panic(fmt.Sprintf("gnn: row index %d out of range [0,%d)", r, n))
		}
	}
}

// meanPoolGo is meanPool's pure-Go kernel: out's row g, zeroed, gets the
// mean of x's rows rows[g·fanout], …, rows[(g+1)·fanout−1] (rows g·fanout
// onwards when rows is nil), four rows per pass through addRows4.
func meanPoolGo(out, x *Matrix, rows []int32, fanout int) {
	row := x.Row
	if rows != nil {
		row = func(r int) []float32 { return x.Row(int(rows[r])) }
	}
	inv := 1 / float32(fanout)
	for i := 0; i < out.Rows; i++ {
		orow := out.Row(i)
		r, end := i*fanout, (i+1)*fanout
		for ; r+4 <= end; r += 4 {
			addRows4(orow, inv, inv, inv, inv, row(r), row(r+1), row(r+2), row(r+3))
		}
		for ; r < end; r++ {
			addRow(orow, inv, row(r))
		}
	}
}

// GatherRows returns the matrix whose row i is a copy of m's row rows[i].
func GatherRows(m *Matrix, rows []int32) *Matrix {
	out := NewMatrix(len(rows), m.Cols)
	for i, r := range rows {
		copy(out.Row(i), m.Row(int(r)))
	}
	return out
}

// ScatterAddRows is GatherRows' adjoint: it returns the n×m.Cols matrix
// whose row r sums, in ascending i, every row i of m with rows[i] == r.
func ScatterAddRows(m *Matrix, rows []int32, n int) *Matrix {
	if len(rows) != m.Rows {
		panic(fmt.Sprintf("gnn: ScatterAddRows has %d indices for %d rows", len(rows), m.Rows))
	}
	out := NewMatrix(n, m.Cols)
	addRowsTo(out, m, rows)
	return out
}

// addRowsTo adds m's row i to out's row rows[i], in ascending i.
func addRowsTo(out, m *Matrix, rows []int32) {
	for i, r := range rows {
		orow := out.Row(int(r))
		for j, v := range m.Row(i) {
			orow[j] += v
		}
	}
}

// MeanPoolBackward scatters the pooled gradient back to the child rows:
// every row of group i is dPooled's row i times 1/fanout.
func MeanPoolBackward(dPooled *Matrix, fanout int) *Matrix {
	out := NewMatrix(dPooled.Rows*fanout, dPooled.Cols)
	if fanout == 0 {
		return out
	}
	inv := 1 / float32(fanout)
	for i := 0; i < dPooled.Rows; i++ {
		first := out.Row(i * fanout)
		for k, v := range dPooled.Row(i) {
			first[k] = v * inv
		}
		for j := 1; j < fanout; j++ {
			copy(out.Row(i*fanout+j), first)
		}
	}
	return out
}

// meanPoolBackwardRows is MeanPoolRows' adjoint added into out: position p
// of group g adds dPooled's row g times 1/fanout to out's row rows[p], in
// ascending p. It scales dPooled in place first. The bits are those of
// ScatterAddRows over MeanPoolBackward.
func meanPoolBackwardRows(out, dPooled *Matrix, rows []int32, fanout int) {
	if len(rows) != dPooled.Rows*fanout || dPooled.Cols != out.Cols {
		panic(fmt.Sprintf("gnn: pool backward of %dx%d at fan-out %d into %d rows", dPooled.Rows, dPooled.Cols, fanout, len(rows)))
	}
	inv := 1 / float32(fanout)
	for i := range dPooled.Data {
		dPooled.Data[i] *= inv
	}
	for p, r := range rows {
		orow := out.Row(int(r))
		for k, v := range dPooled.Row(p / fanout) {
			orow[k] += v
		}
	}
}

// minGradProb is the smallest class probability that enters dL/dlogits;
// a smaller one is taken as 0. It is 2^40 below float32's resolution of
// the label entry's p-1 (2^-24), so it moves no parameter measurably. Kept,
// it would make the backward products of a model that fits its batches
// underflow into subnormal floats, which x86 multiplies through a microcode
// assist: on train-cluster that made late steps 2-4× slower.
const minGradProb = 0x1p-64

// SoftmaxCrossEntropy computes the mean cross-entropy of logits (n×classes)
// against integer labels, returning the loss and dL/dlogits.
func SoftmaxCrossEntropy(logits *Matrix, labels []int32) (float64, *Matrix) {
	if len(labels) != logits.Rows {
		panic("gnn: label count mismatch")
	}
	n := logits.Rows
	grad := NewMatrix(n, logits.Cols)
	loss := 0.0
	invN := 1 / float32(n)
	for i := 0; i < n; i++ {
		row := logits.Row(i)
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxv))
		}
		logSum := math.Log(sum)
		lbl := int(labels[i])
		loss += logSum - float64(row[lbl]-maxv)
		grow := grad.Row(i)
		for j, v := range row {
			p := float32(math.Exp(float64(v-maxv)) / sum)
			if p < minGradProb {
				p = 0
			}
			if j == lbl {
				p -= 1
			}
			grow[j] = p * invN
		}
	}
	return loss / float64(n), grad
}

// Argmax returns the per-row argmax of m.
func Argmax(m *Matrix) []int32 {
	out := make([]int32, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		best, bv := 0, row[0]
		for j, v := range row[1:] {
			if v > bv {
				best, bv = j+1, v
			}
		}
		out[i] = int32(best)
	}
	return out
}

// VStack concatenates a and b row-wise.
func VStack(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic("gnn: VStack column mismatch")
	}
	out := NewMatrix(a.Rows+b.Rows, a.Cols)
	copy(out.Data, a.Data)
	copy(out.Data[len(a.Data):], b.Data)
	return out
}

// SliceRows returns rows [lo, hi) of m as a copy.
func SliceRows(m *Matrix, lo, hi int) *Matrix {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("gnn: SliceRows [%d,%d) of %d rows", lo, hi, m.Rows))
	}
	out := NewMatrix(hi-lo, m.Cols)
	copy(out.Data, m.Data[lo*m.Cols:hi*m.Cols])
	return out
}

// rowView returns rows [lo, hi) of m, sharing m's storage.
func rowView(m *Matrix, lo, hi int) *Matrix {
	return NewMatrixFrom(hi-lo, m.Cols, m.Data[lo*m.Cols:hi*m.Cols])
}
