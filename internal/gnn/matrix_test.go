package gnn

import (
	"math"
	"math/rand"
	"testing"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatMul(t *testing.T) {
	a := NewMatrixFrom(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := NewMatrixFrom(3, 2, []float32{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulTransposes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewMatrix(4, 3).Glorot(rng)
	b := NewMatrix(4, 5).Glorot(rng)
	// aᵀ·b via explicit transpose.
	at := NewMatrix(3, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	want := MatMul(at, b)
	got := MatMulAT(a, b)
	for i := range want.Data {
		if !approx(float64(got.Data[i]), float64(want.Data[i]), 1e-5) {
			t.Fatalf("MatMulAT[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
	// a·bᵀ with b' (5×3).
	b2 := NewMatrix(5, 3).Glorot(rng)
	b2t := NewMatrix(3, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			b2t.Set(j, i, b2.At(i, j))
		}
	}
	want2 := MatMul(a, b2t)
	got2 := MatMulBT(a, b2)
	for i := range want2.Data {
		if !approx(float64(got2.Data[i]), float64(want2.Data[i]), 1e-5) {
			t.Fatalf("MatMulBT[%d] = %v, want %v", i, got2.Data[i], want2.Data[i])
		}
	}
}

// The kernels' reference implementations: one float32 add per term, from
// zero, in ascending summation index, with no skipped terms. The kernels
// must match them bit for bit.

func naiveMatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func naiveMatMulAT(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for k := 0; k < a.Rows; k++ {
				s += a.At(k, i) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// naiveMatMulBT is the scalar loop MatMulBT replaced.
func naiveMatMulBT(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float32
			for k := 0; k < a.Cols; k++ {
				s += float32(a.At(i, k) * b.At(j, k))
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func naiveMeanPool(child *Matrix, fanout int) *Matrix {
	out := NewMatrix(child.Rows/fanout, child.Cols)
	inv := 1 / float32(fanout)
	for i := 0; i < out.Rows; i++ {
		for k := 0; k < out.Cols; k++ {
			var s float32
			for j := 0; j < fanout; j++ {
				s += child.At(i*fanout+j, k) * inv
			}
			out.Set(i, k, s)
		}
	}
	return out
}

func naiveMeanPoolBackward(dPooled *Matrix, fanout int) *Matrix {
	out := NewMatrix(dPooled.Rows*fanout, dPooled.Cols)
	inv := 1 / float32(fanout)
	for r := 0; r < out.Rows; r++ {
		for k := 0; k < out.Cols; k++ {
			out.Set(r, k, dPooled.At(r/fanout, k)*inv)
		}
	}
	return out
}

// kernelInput is a rows×cols Glorot matrix in which every third element is
// an exact zero and every seventh a negative zero.
func kernelInput(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols).Glorot(rng)
	for i := range m.Data {
		switch {
		case i%3 == 0:
			m.Data[i] = 0
		case i%7 == 0:
			m.Data[i] = float32(math.Copysign(0, -1))
		}
	}
	return m
}

// sameBits fails unless got and want have the same shape and every element
// the same float32 bits.
func sameBits(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", name, i,
				got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// TestKernelsMatchNaiveBitForBit checks the kernels MatMul, MatMulAT and
// the pools run on this host (the AVX2 ones where the processor has it),
// and the pure-Go kernels beside them, against the naive references bit for
// bit. Widths cross the vector kernels' boundaries: below, at and past 8
// and 32 columns, so the 32-column blocks, the 8-column blocks and the
// scalar tail all run; k covers no terms, the 0-3 remainder after the
// four-row Go tiles and the train-cluster widths (64 features, 32 hidden);
// odd row counts leave a row outside the pairs.
func TestKernelsMatchNaiveBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	widths := []int{1, 5, 7, 8, 9, 16, 31, 32, 33, 40, 64}
	for _, rows := range []int{1, 2, 3, 17} {
		for _, k := range []int{0, 1, 2, 3, 4, 5, 7, 8, 32, 64, 67} {
			for _, n := range widths {
				a := kernelInput(rng, rows, k)
				b := kernelInput(rng, k, n)
				want := naiveMatMul(a, b)
				sameBits(t, "MatMul", MatMul(a, b), want)
				got := NewMatrix(rows, n)
				matMulGo(got, a, b)
				sameBits(t, "matMulGo", got, want)

				at := kernelInput(rng, k, rows)
				want = naiveMatMulAT(at, b)
				sameBits(t, "MatMulAT", MatMulAT(at, b), want)
				got = NewMatrix(rows, n)
				matMulATGo(got, at, b)
				sameBits(t, "matMulATGo", got, want)
			}
		}
	}
	for _, fanout := range []int{1, 3, 5, 10} {
		for _, rows := range []int{1, 4, 5} {
			for _, d := range widths {
				child := kernelInput(rng, rows*fanout, d)
				want := naiveMeanPool(child, fanout)
				sameBits(t, "MeanPool", MeanPool(child, fanout), want)
				got := NewMatrix(rows, d)
				meanPoolGo(got, child, nil, fanout)
				sameBits(t, "meanPoolGo", got, want)

				// The same child rows scattered over a larger x, read
				// through an index that repeats some of them.
				x := kernelInput(rng, 2*rows*fanout+3, d)
				idx := make([]int32, rows*fanout)
				for i := range idx {
					idx[i] = int32(rng.Intn(x.Rows))
				}
				want = naiveMeanPool(GatherRows(x, idx), fanout)
				sameBits(t, "MeanPoolRows", MeanPoolRows(x, idx, fanout), want)
				got = NewMatrix(rows, d)
				meanPoolGo(got, x, idx, fanout)
				sameBits(t, "meanPoolGo rows", got, want)

				dPooled := kernelInput(rng, rows, d)
				sameBits(t, "MeanPoolBackward", MeanPoolBackward(dPooled, fanout), naiveMeanPoolBackward(dPooled, fanout))
				// Its adjoint through the index, into x's shape.
				want = ScatterAddRows(naiveMeanPoolBackward(dPooled, fanout), idx, x.Rows)
				got = NewMatrix(x.Rows, d)
				meanPoolBackwardRows(got, dPooled, idx, fanout)
				sameBits(t, "meanPoolBackwardRows", got, want)
			}
		}
	}
	// ReLU and its backward, against the 0/1 mask they replace: the
	// elements past the last multiple of 8 take the Go kernel.
	for _, n := range append(widths, 0, 100) {
		x := kernelInput(rng, 1, n)
		want, mask := NewMatrix(1, n), NewMatrix(1, n)
		for i, v := range x.Data {
			if v > 0 {
				want.Data[i], mask.Data[i] = v, 1
			}
		}
		ReluInPlace(x)
		sameBits(t, "ReluInPlace", x, want)

		d := kernelInput(rng, 1, n)
		for i := range d.Data {
			if i%2 == 1 {
				d.Data[i] = -d.Data[i]
			}
		}
		dWant := d.Clone()
		for i := range dWant.Data {
			dWant.Data[i] *= mask.Data[i]
		}
		dGo := d.Clone()
		reluBackwardGo(dGo.Data, x.Data)
		sameBits(t, "reluBackwardGo", dGo, dWant)
		reluBackwardInPlace(d, x)
		sameBits(t, "reluBackwardInPlace", d, dWant)
	}
}

// TestMatMulBTMatchesScalarLoop: MatMulBT, which runs MatMul's kernel over
// a transposed copy of b, gives the scalar triple loop's bits, at shapes
// where k is not a multiple of 4, n is below 8 (no vector column block),
// at 8 and past it, and the row count is odd.
func TestMatMulBTMatchesScalarLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, m := range []int{1, 3, 256} {
		for _, k := range []int{0, 1, 3, 5, 8, 13, 32} {
			for _, n := range []int{1, 3, 7, 8, 9, 32} {
				a, b := kernelInput(rng, m, k), kernelInput(rng, n, k)
				sameBits(t, "MatMulBT", MatMulBT(a, b), naiveMatMulBT(a, b))
			}
		}
	}
}

func TestShapePanics(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	for name, fn := range map[string]func(){
		"MatMul":   func() { MatMul(a, b) },
		"Bias":     func() { AddBiasRow(a, NewMatrix(1, 5)) },
		"MeanPool": func() { MeanPool(NewMatrix(5, 2), 2) },
		"VStack":   func() { VStack(a, NewMatrix(2, 4)) },
		"From":     func() { NewMatrixFrom(2, 2, []float32{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestReluAndMask: ReLU zeroes what is not above zero, and its backward,
// read from the output, multiplies the gradient by the 0/1 mask: −10·0 is
// −0, as the mask multiply gives.
func TestReluAndMask(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	m := NewMatrixFrom(1, 5, []float32{-1, 2, -3, 4, negZero})
	ReluInPlace(m)
	for i, w := range []float32{0, 2, 0, 4, 0} {
		if math.Float32bits(m.Data[i]) != math.Float32bits(w) {
			t.Fatalf("relu = %v", m.Data)
		}
	}
	g := NewMatrixFrom(1, 5, []float32{10, 10, -10, 10, 10})
	reluBackwardInPlace(g, m)
	for i, w := range []float32{0, 10, negZero, 10, 0} {
		if math.Float32bits(g.Data[i]) != math.Float32bits(w) {
			t.Fatalf("relu backward = %v", g.Data)
		}
	}
}

func TestMeanPoolRoundTrip(t *testing.T) {
	child := NewMatrixFrom(4, 2, []float32{1, 2, 3, 4, 5, 6, 7, 8})
	pooled := MeanPool(child, 2)
	if pooled.Rows != 2 || pooled.At(0, 0) != 2 || pooled.At(0, 1) != 3 ||
		pooled.At(1, 0) != 6 || pooled.At(1, 1) != 7 {
		t.Fatalf("MeanPool = %v", pooled.Data)
	}
	back := MeanPoolBackward(pooled, 2)
	if back.Rows != 4 || back.At(0, 0) != 1 || back.At(3, 1) != 3.5 {
		t.Fatalf("MeanPoolBackward = %v", back.Data)
	}
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	// Perfectly confident correct logits: loss near zero.
	logits := NewMatrixFrom(2, 3, []float32{100, 0, 0, 0, 100, 0})
	loss, grad := SoftmaxCrossEntropy(logits, []int32{0, 1})
	if loss > 1e-6 {
		t.Fatalf("confident loss = %v", loss)
	}
	if !approx(float64(grad.At(0, 0)), 0, 1e-6) {
		t.Fatalf("grad = %v", grad.Data)
	}
	// The wrong classes' probabilities, e^-100, are below minGradProb: the
	// gradient is exactly zero, with no subnormal entry.
	for i, g := range grad.Data {
		if g != 0 {
			t.Fatalf("confident grad[%d] = %g, want 0", i, g)
		}
	}
	// A probability of about 2^-60 (logit gap 60 ln 2) stays.
	gap := float32(60 * math.Ln2)
	_, grad = SoftmaxCrossEntropy(NewMatrixFrom(1, 2, []float32{gap, 0}), []int32{0})
	if p := float64(grad.At(0, 1)); p < 0x1p-61 || p > 0x1p-59 {
		t.Fatalf("grad of a 2^-60 probability = %g, want about 2^-60", p)
	}
	// Uniform logits: loss = ln(3).
	logits = NewMatrix(1, 3)
	loss, _ = SoftmaxCrossEntropy(logits, []int32{2})
	if !approx(loss, math.Log(3), 1e-6) {
		t.Fatalf("uniform loss = %v, want ln3", loss)
	}
}

func TestSoftmaxGradientNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	logits := NewMatrix(3, 4).Glorot(rng)
	labels := []int32{1, 3, 0}
	_, grad := SoftmaxCrossEntropy(logits, labels)
	const h = 1e-3
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + h
		lp, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig - h
		lm, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig
		numeric := (lp - lm) / (2 * h)
		if !approx(numeric, float64(grad.Data[i]), 1e-3) {
			t.Fatalf("grad[%d]: numeric %v vs analytic %v", i, numeric, grad.Data[i])
		}
	}
}

func TestArgmax(t *testing.T) {
	m := NewMatrixFrom(2, 3, []float32{1, 5, 2, 9, 0, 3})
	got := Argmax(m)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("Argmax = %v", got)
	}
}

func TestVStackSliceRows(t *testing.T) {
	a := NewMatrixFrom(1, 2, []float32{1, 2})
	b := NewMatrixFrom(2, 2, []float32{3, 4, 5, 6})
	s := VStack(a, b)
	if s.Rows != 3 || s.At(2, 1) != 6 {
		t.Fatalf("VStack = %v", s.Data)
	}
	part := SliceRows(s, 1, 3)
	if part.Rows != 2 || part.At(0, 0) != 3 || part.At(1, 1) != 6 {
		t.Fatalf("SliceRows = %v", part.Data)
	}
}

func TestSAGELayerGradientNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewSAGELayer(3, 2, true, rng)
	xs := NewMatrix(4, 3).Glorot(rng)
	xn := NewMatrix(4, 3).Glorot(rng)
	labels := []int32{0, 1, 0, 1}

	lossOf := func() float64 {
		out := l.Forward(xs, xn)
		loss, _ := SoftmaxCrossEntropy(out, labels)
		return loss
	}
	l.ZeroGrads()
	out := l.Forward(xs, xn)
	_, dOut := SoftmaxCrossEntropy(out, labels)
	dXs, dXn := l.Backward(dOut)

	const h = 1e-3
	check := func(name string, param *Matrix, grad *Matrix) {
		for i := range param.Data {
			orig := param.Data[i]
			param.Data[i] = orig + h
			lp := lossOf()
			param.Data[i] = orig - h
			lm := lossOf()
			param.Data[i] = orig
			numeric := (lp - lm) / (2 * h)
			if !approx(numeric, float64(grad.Data[i]), 2e-3) {
				t.Fatalf("%s grad[%d]: numeric %v vs analytic %v", name, i, numeric, grad.Data[i])
			}
		}
	}
	check("Wself", l.Wself, l.GWself)
	check("Wneigh", l.Wneigh, l.GWneigh)
	check("Bias", l.Bias, l.GBias)
	check("xSelf", xs, dXs)
	check("xNeigh", xn, dXn)
}

// TestBackwardWeightsMatchesBackward pins the weights-only cut: on twin
// layers, BackwardWeights leaves every gradient bit-equal to Backward's.
func TestBackwardWeightsMatchesBackward(t *testing.T) {
	const n, in, out, f = 5, 6, 4, 3
	for _, act := range []bool{true, false} {
		full := NewSAGELayer(in, out, act, rand.New(rand.NewSource(21)))
		cut := NewSAGELayer(in, out, act, rand.New(rand.NewSource(21)))
		rng := rand.New(rand.NewSource(22))
		xs, xn := kernelInput(rng, n, in), kernelInput(rng, n, in)
		dOut := NewMatrix(n, out).Glorot(rng)
		full.Forward(xs, xn)
		cut.Forward(xs, xn)
		full.Backward(dOut)
		cut.BackwardWeights(dOut)
		for i, g := range full.Grads() {
			sameBits(t, "SAGE grad", cut.Grads()[i], g)
		}

		gFull := NewGATLayer(in, out, act, rand.New(rand.NewSource(23)))
		gCut := NewGATLayer(in, out, act, rand.New(rand.NewSource(23)))
		xn = kernelInput(rng, n*f, in)
		gFull.Forward(xs, xn, f)
		gCut.Forward(xs, xn, f)
		gFull.Backward(dOut)
		gCut.BackwardWeights(dOut)
		for i, g := range gFull.Grads() {
			sameBits(t, "GAT grad", gCut.Grads()[i], g)
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize ||p - target||^2 via Adam using analytic gradient 2(p-t).
	p := NewMatrixFrom(1, 3, []float32{5, -4, 2})
	target := []float32{1, 1, 1}
	g := NewMatrix(1, 3)
	opt := NewAdam(0.1)
	for step := 0; step < 2000; step++ {
		for i := range p.Data {
			g.Data[i] = 2 * (p.Data[i] - target[i])
		}
		opt.Step([]*Matrix{p}, []*Matrix{g})
	}
	for i := range p.Data {
		if !approx(float64(p.Data[i]), float64(target[i]), 1e-2) {
			t.Fatalf("Adam did not converge: %v", p.Data)
		}
	}
}

func TestAdamStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	params := []*Matrix{NewMatrix(2, 3).Glorot(rng)}
	grads := []*Matrix{NewMatrix(2, 3).Glorot(rng)}
	a := NewAdam(0.05)
	for i := 0; i < 4; i++ {
		a.Step(params, grads)
	}
	st := a.State()
	if st.T != 4 || len(st.M) != 1 || len(st.M[0]) != 6 {
		t.Fatalf("unexpected state: T=%d M=%v", st.T, st.M)
	}
	// Continuing from a restored state must match continuing the original.
	b := NewAdam(0.05)
	b.SetState(st)
	pa := []*Matrix{params[0].Clone()}
	pb := []*Matrix{params[0].Clone()}
	for i := 0; i < 3; i++ {
		a.Step(pa, grads)
		b.Step(pb, grads)
	}
	for j := range pa[0].Data {
		if pa[0].Data[j] != pb[0].Data[j] {
			t.Fatalf("restored optimizer diverged at %d: %v vs %v", j, pa[0].Data[j], pb[0].Data[j])
		}
	}
	// Mutating the exported state must not alias the optimizer's internals.
	st.M[0][0] = 99
	if a.State().M[0][0] == 99 {
		t.Fatal("State() aliases internal moments")
	}
}
