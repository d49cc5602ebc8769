package gnn

import (
	"fmt"
	"math"
	"math/rand"
)

// SAGELayer is one GraphSAGE layer implementing Eq. (1) with a mean
// aggregator:
//
//	h_out(v) = act( h(v)·Wself + mean_{u∈N(v)} h(u)·Wneigh + b )
//
// g is the combine step, ⊕ the mean pool (computed by the caller with
// MeanPool), and f the identity message function.
type SAGELayer struct {
	Wself, Wneigh *Matrix // in×out
	Bias          *Matrix // 1×out
	Act           bool    // apply ReLU

	// Gradients, accumulated by BackwardWeights (and so by Backward).
	GWself, GWneigh, GBias *Matrix

	// Forward cache.
	xSelf, xNeigh *Matrix
	selfRows      []int32 // nil: row i's self input is xSelf's row i
	out           *Matrix // the activation, which ReLU's backward reads
}

// NewSAGELayer returns a Glorot-initialized layer.
func NewSAGELayer(in, out int, act bool, rng *rand.Rand) *SAGELayer {
	return &SAGELayer{
		Wself:   NewMatrix(in, out).Glorot(rng),
		Wneigh:  NewMatrix(in, out).Glorot(rng),
		Bias:    NewMatrix(1, out),
		Act:     act,
		GWself:  NewMatrix(in, out),
		GWneigh: NewMatrix(in, out),
		GBias:   NewMatrix(1, out),
	}
}

// Forward combines the self embeddings (n×in) with the pooled neighbor
// embeddings (n×in) into the next representations (n×out), caching
// intermediates for Backward. Backward reads the returned matrix, so the
// caller must not modify it before then.
func (l *SAGELayer) Forward(xSelf, xNeigh *Matrix) *Matrix {
	return l.ForwardRows(xSelf, nil, xNeigh)
}

// ForwardRows is Forward for a block whose self inputs repeat: row i's self
// input is xSelf's row selfRows[i], and xSelf holds each distinct input
// once. It caches what Backward reads; linkpred's encoder uses it.
func (l *SAGELayer) ForwardRows(xSelf *Matrix, selfRows []int32, xNeigh *Matrix) *Matrix {
	return l.forwardInto(NewMatrix(xNeigh.Rows, l.Wneigh.Cols), NewMatrix(xSelf.Rows, l.Wself.Cols), xSelf, selfRows, xNeigh)
}

// forwardInto is ForwardRows into out and with self as the scratch of the
// self projection, both zeroed and shaped as ForwardRows would make them.
func (l *SAGELayer) forwardInto(out, self, xSelf *Matrix, selfRows []int32, xNeigh *Matrix) *Matrix {
	l.xSelf, l.selfRows, l.xNeigh = xSelf, selfRows, xNeigh
	l.out = l.applyInto(out, self, xSelf, selfRows, xNeigh)
	return l.out
}

// Apply computes Forward's output from the weights alone, caching
// nothing, so concurrent callers may share the layer.
func (l *SAGELayer) Apply(xSelf, xNeigh *Matrix) *Matrix {
	return l.applyInto(NewMatrix(xNeigh.Rows, l.Wneigh.Cols), NewMatrix(xSelf.Rows, l.Wself.Cols), xSelf, nil, xNeigh)
}

// applyInto is ForwardRows' output into the zeroed out, with self as the
// zeroed scratch of the self projection, caching nothing. x·Wself is
// row-wise, so it projects every row of xSelf once, and output row i starts
// from xNeigh·Wneigh's row i and adds the projection of its self row: one
// float32 add of the same two values Forward on the gathered inputs adds,
// so the bits are the same. A nil selfRows means row i reads row i.
func (l *SAGELayer) applyInto(out, self, xSelf *Matrix, selfRows []int32, xNeigh *Matrix) *Matrix {
	matMulInto(out, xNeigh, l.Wneigh)
	matMulInto(self, xSelf, l.Wself)
	if selfRows == nil {
		AddInPlace(out, self)
	} else {
		addRowsOf(out, self, selfRows)
	}
	AddBiasRow(out, l.Bias)
	if l.Act {
		ReluInPlace(out)
	}
	return out
}

// addRowsOf adds m's row rows[i] to out's row i, for every row of out.
func addRowsOf(out, m *Matrix, rows []int32) {
	if len(rows) != out.Rows || m.Cols != out.Cols {
		panic(fmt.Sprintf("gnn: adding %d indexed rows of width %d to %dx%d", len(rows), m.Cols, out.Rows, out.Cols))
	}
	for i, r := range rows {
		orow, mrow := out.Row(i), m.Row(int(r))
		for j := range orow {
			orow[j] += mrow[j]
		}
	}
}

// BackwardWeights consumes dL/doutput and accumulates the weight and bias
// gradients. It returns dL/dz, the gradient before the activation, which
// only Backward needs: a first layer, whose inputs are constant features,
// calls this and skips the two input-gradient products. With an
// activation, dz is dOut scaled in place by ReLU's backward, so dOut is
// overwritten. After ForwardRows, dz is summed into the distinct self rows
// before the Wself product.
func (l *SAGELayer) BackwardWeights(dOut *Matrix) (dz *Matrix) {
	dz = dOut
	if l.Act {
		reluBackwardInPlace(dz, l.out)
	}
	dzSelf := dz
	if l.selfRows != nil {
		dzSelf = ScatterAddRows(dz, l.selfRows, l.xSelf.Rows)
	}
	AddInPlace(l.GWself, MatMulAT(l.xSelf, dzSelf))
	AddInPlace(l.GWneigh, MatMulAT(l.xNeigh, dz))
	AddInPlace(l.GBias, ColSum(dz))
	return dz
}

// Backward consumes dL/doutput and returns (dL/dxSelf, dL/dxNeigh),
// accumulating the weight gradients. After ForwardRows, dL/dxSelf has one
// row per output row, not per row of xSelf.
func (l *SAGELayer) Backward(dOut *Matrix) (dSelf, dNeigh *Matrix) {
	dz := l.BackwardWeights(dOut)
	return MatMulBT(dz, l.Wself), MatMulBT(dz, l.Wneigh)
}

// Params returns the trainable tensors.
func (l *SAGELayer) Params() []*Matrix { return []*Matrix{l.Wself, l.Wneigh, l.Bias} }

// Grads returns the gradient tensors, aligned with Params.
func (l *SAGELayer) Grads() []*Matrix { return []*Matrix{l.GWself, l.GWneigh, l.GBias} }

// ZeroGrads clears the accumulated gradients.
func (l *SAGELayer) ZeroGrads() {
	l.GWself.Zero()
	l.GWneigh.Zero()
	l.GBias.Zero()
}

// Adam is a standard Adam optimizer over a set of tensors.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  [][]float32
}

// NewAdam returns an Adam optimizer with standard defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// AdamState is the serializable optimizer state: the step count and both
// moment vectors, aligned with the parameter tensors Step was called with.
// Checkpoints carry it so a resumed training session continues the exact
// update trajectory instead of restarting the moments from zero.
type AdamState struct {
	T    int
	M, V [][]float32
}

// State deep-copies the optimizer state. An optimizer that has not stepped
// yet returns a zero state (T == 0, nil moments).
func (a *Adam) State() AdamState {
	st := AdamState{T: a.t}
	if a.m != nil {
		st.M = make([][]float32, len(a.m))
		st.V = make([][]float32, len(a.v))
		for i := range a.m {
			st.M[i] = append([]float32(nil), a.m[i]...)
			st.V[i] = append([]float32(nil), a.v[i]...)
		}
	}
	return st
}

// SetState restores a previously captured state, deep-copying the moment
// vectors. A zero state resets the optimizer to fresh. Callers are
// responsible for matching the state to the parameter set (the checkpoint
// layer validates shapes before calling this).
func (a *Adam) SetState(st AdamState) {
	a.t = st.T
	if st.M == nil {
		a.m, a.v = nil, nil
		return
	}
	a.m = make([][]float32, len(st.M))
	a.v = make([][]float32, len(st.V))
	for i := range st.M {
		a.m[i] = append([]float32(nil), st.M[i]...)
		a.v[i] = append([]float32(nil), st.V[i]...)
	}
}

// Step applies one update to params from grads (aligned slices of tensors).
func (a *Adam) Step(params, grads []*Matrix) {
	if a.m == nil {
		a.m = make([][]float32, len(params))
		a.v = make([][]float32, len(params))
		for i, p := range params {
			a.m[i] = make([]float32, len(p.Data))
			a.v[i] = make([]float32, len(p.Data))
		}
	}
	a.t++
	b1c := 1 - math.Pow(a.Beta1, float64(a.t))
	b2c := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range params {
		g := grads[i].Data
		m, v := a.m[i], a.v[i]
		for j := range p.Data {
			gj := float64(g[j])
			m[j] = float32(a.Beta1)*m[j] + float32(1-a.Beta1)*float32(gj)
			v[j] = float32(a.Beta2)*v[j] + float32(1-a.Beta2)*float32(gj*gj)
			mhat := float64(m[j]) / b1c
			vhat := float64(v[j]) / b2c
			p.Data[j] -= float32(a.LR * mhat / (math.Sqrt(vhat) + a.Eps))
		}
	}
}
