package gnn

import (
	"math"
	"math/rand"
)

// GATLayer is a single-head graph attention layer (Veličković et al., the
// paper's ref. [30]) over fixed-fanout sampled neighborhoods: instead of the
// mean aggregator's uniform ⊕, each neighbor's message is weighted by a
// learned attention coefficient
//
//	e_ij   = LeakyReLU(aSᵀ·W·h_i + aNᵀ·W·h_j)
//	α_ij   = softmax_j(e_ij)
//	out_i  = act( W·h_i + Σ_j α_ij · W·h_j + b )
//
// The self term plays the role of GAT's self-loop attention.
type GATLayer struct {
	W    *Matrix // in×out shared projection
	AS   *Matrix // 1×out self attention vector
	AN   *Matrix // 1×out neighbor attention vector
	Bias *Matrix // 1×out
	Act  bool

	GW, GAS, GAN, GBias *Matrix

	// Forward cache.
	xSelf, xNeigh *Matrix
	hs, hn        *Matrix
	alpha         *Matrix // n×fanout
	preMask       *Matrix // LeakyReLU gradient factors, n×fanout
	out           *Matrix // the activation, which ReLU's backward reads
	fanout        int
}

// LeakyReLU negative slope.
const gatSlope = 0.2

// NewGATLayer returns a Glorot-initialized attention layer.
func NewGATLayer(in, out int, act bool, rng *rand.Rand) *GATLayer {
	return &GATLayer{
		W:     NewMatrix(in, out).Glorot(rng),
		AS:    NewMatrix(1, out).Glorot(rng),
		AN:    NewMatrix(1, out).Glorot(rng),
		Bias:  NewMatrix(1, out),
		Act:   act,
		GW:    NewMatrix(in, out),
		GAS:   NewMatrix(1, out),
		GAN:   NewMatrix(1, out),
		GBias: NewMatrix(1, out),
	}
}

// Forward combines self embeddings (n×in) with their fanout neighbors
// ((n*fanout)×in) into attention-weighted representations (n×out).
// Backward reads the returned matrix, so the caller must not modify it
// before then.
func (l *GATLayer) Forward(xSelf, xNeigh *Matrix, fanout int) *Matrix {
	if xNeigh.Rows != xSelf.Rows*fanout {
		panic("gnn: GAT neighbor rows != n*fanout")
	}
	n := xSelf.Rows
	o := l.W.Cols
	l.xSelf, l.xNeigh, l.fanout = xSelf, xNeigh, fanout
	l.hs = MatMul(xSelf, l.W)
	l.hn = MatMul(xNeigh, l.W)
	l.alpha = NewMatrix(n, fanout)
	l.preMask = NewMatrix(n, fanout)
	out := NewMatrix(n, o)
	for i := 0; i < n; i++ {
		hsRow := l.hs.Row(i)
		var sSelf float32
		for k := 0; k < o; k++ {
			sSelf += l.AS.Data[k] * hsRow[k]
		}
		// Attention logits with LeakyReLU.
		logits := make([]float64, fanout)
		maxv := math.Inf(-1)
		for j := 0; j < fanout; j++ {
			hnRow := l.hn.Row(i*fanout + j)
			var sN float32
			for k := 0; k < o; k++ {
				sN += l.AN.Data[k] * hnRow[k]
			}
			e := float64(sSelf + sN)
			if e >= 0 {
				l.preMask.Set(i, j, 1)
			} else {
				e *= gatSlope
				l.preMask.Set(i, j, gatSlope)
			}
			logits[j] = e
			if e > maxv {
				maxv = e
			}
		}
		// Softmax over the group.
		var sum float64
		for j := 0; j < fanout; j++ {
			logits[j] = math.Exp(logits[j] - maxv)
			sum += logits[j]
		}
		orow := out.Row(i)
		copy(orow, hsRow)
		for j := 0; j < fanout; j++ {
			a := float32(logits[j] / sum)
			l.alpha.Set(i, j, a)
			hnRow := l.hn.Row(i*fanout + j)
			for k := 0; k < o; k++ {
				orow[k] += a * hnRow[k]
			}
		}
		for k := 0; k < o; k++ {
			orow[k] += l.Bias.Data[k]
		}
	}
	if l.Act {
		ReluInPlace(out)
	}
	l.out = out
	return out
}

// Backward consumes dL/doutput, accumulates parameter gradients, and
// returns (dL/dxSelf, dL/dxNeigh).
func (l *GATLayer) Backward(dOut *Matrix) (dSelf, dNeigh *Matrix) {
	dHs, dHn := l.BackwardWeights(dOut)
	return MatMulBT(dHs, l.W), MatMulBT(dHn, l.W)
}

// BackwardWeights consumes dL/doutput and accumulates the parameter
// gradients. It returns the gradients at the projected self and neighbor
// rows (x·W), which only Backward needs: a first layer, whose inputs are
// constant features, calls this and skips the two input-gradient products.
// With an activation, ReLU's backward scales dOut in place.
func (l *GATLayer) BackwardWeights(dOut *Matrix) (dHs, dHn *Matrix) {
	n := l.xSelf.Rows
	o := l.W.Cols
	f := l.fanout
	dz := dOut
	if l.Act {
		reluBackwardInPlace(dz, l.out)
	}
	dHs = NewMatrix(n, o)
	dHn = NewMatrix(n*f, o)
	for i := 0; i < n; i++ {
		dzRow := dz.Row(i)
		// Bias and self projection.
		for k := 0; k < o; k++ {
			l.GBias.Data[k] += dzRow[k]
			dHs.Row(i)[k] += dzRow[k]
		}
		// dα_ij = <dz_i, hn_ij>; dHn via the attention weights.
		dAlpha := make([]float64, f)
		for j := 0; j < f; j++ {
			hnRow := l.hn.Row(i*f + j)
			a := l.alpha.At(i, j)
			var dot float64
			dhnRow := dHn.Row(i*f + j)
			for k := 0; k < o; k++ {
				dot += float64(dzRow[k] * hnRow[k])
				dhnRow[k] += a * dzRow[k]
			}
			dAlpha[j] = dot
		}
		// Softmax backward: de_j = α_j (dα_j - Σ_k α_k dα_k).
		var mix float64
		for j := 0; j < f; j++ {
			mix += float64(l.alpha.At(i, j)) * dAlpha[j]
		}
		hsRow := l.hs.Row(i)
		dhsRow := dHs.Row(i)
		for j := 0; j < f; j++ {
			de := float64(l.alpha.At(i, j)) * (dAlpha[j] - mix)
			dpre := float32(de) * l.preMask.At(i, j)
			// pre = aSᵀhs_i + aNᵀhn_ij.
			hnRow := l.hn.Row(i*f + j)
			dhnRow := dHn.Row(i*f + j)
			for k := 0; k < o; k++ {
				l.GAS.Data[k] += dpre * hsRow[k]
				l.GAN.Data[k] += dpre * hnRow[k]
				dhsRow[k] += dpre * l.AS.Data[k]
				dhnRow[k] += dpre * l.AN.Data[k]
			}
		}
	}
	// Through the shared projection W.
	AddInPlace(l.GW, MatMulAT(l.xSelf, dHs))
	AddInPlace(l.GW, MatMulAT(l.xNeigh, dHn))
	return dHs, dHn
}

// Params returns the trainable tensors.
func (l *GATLayer) Params() []*Matrix { return []*Matrix{l.W, l.AS, l.AN, l.Bias} }

// Grads returns the gradient tensors, aligned with Params.
func (l *GATLayer) Grads() []*Matrix { return []*Matrix{l.GW, l.GAS, l.GAN, l.GBias} }

// ZeroGrads clears accumulated gradients.
func (l *GATLayer) ZeroGrads() {
	l.GW.Zero()
	l.GAS.Zero()
	l.GAN.Zero()
	l.GBias.Zero()
}
