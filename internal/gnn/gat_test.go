package gnn

import (
	"math/rand"
	"testing"
)

func TestGATForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewGATLayer(4, 6, true, rng)
	xs := NewMatrix(3, 4).Glorot(rng)
	xn := NewMatrix(9, 4).Glorot(rng)
	out := l.Forward(xs, xn, 3)
	if out.Rows != 3 || out.Cols != 6 {
		t.Fatalf("out shape %dx%d", out.Rows, out.Cols)
	}
	// Attention rows are probability distributions.
	for i := 0; i < 3; i++ {
		var sum float32
		for j := 0; j < 3; j++ {
			a := l.alpha.At(i, j)
			if a < 0 || a > 1 {
				t.Fatalf("alpha[%d,%d] = %v", i, j, a)
			}
			sum += a
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("alpha row %d sums to %v", i, sum)
		}
	}
}

func TestGATShapePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewGATLayer(4, 6, true, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched neighbor rows")
		}
	}()
	l.Forward(NewMatrix(3, 4), NewMatrix(8, 4), 3)
}

func TestGATGradientNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const (
		n, in, out, f = 3, 4, 3, 2
	)
	l := NewGATLayer(in, out, true, rng)
	xs := NewMatrix(n, in).Glorot(rng)
	xn := NewMatrix(n*f, in).Glorot(rng)
	labels := []int32{0, 1, 2}

	lossOf := func() float64 {
		y := l.Forward(xs, xn, f)
		loss, _ := SoftmaxCrossEntropy(y, labels)
		return loss
	}
	l.ZeroGrads()
	y := l.Forward(xs, xn, f)
	_, dOut := SoftmaxCrossEntropy(y, labels)
	dXs, dXn := l.Backward(dOut)

	const h = 1e-3
	check := func(name string, param, grad *Matrix) {
		t.Helper()
		for i := range param.Data {
			orig := param.Data[i]
			param.Data[i] = orig + h
			lp := lossOf()
			param.Data[i] = orig - h
			lm := lossOf()
			param.Data[i] = orig
			numeric := (lp - lm) / (2 * h)
			if !approx(numeric, float64(grad.Data[i]), 3e-3) {
				t.Fatalf("%s grad[%d]: numeric %v vs analytic %v", name, i, numeric, grad.Data[i])
			}
		}
	}
	check("W", l.W, l.GW)
	check("AS", l.AS, l.GAS)
	check("AN", l.AN, l.GAN)
	check("Bias", l.Bias, l.GBias)
	check("xSelf", xs, dXs)
	check("xNeigh", xn, dXn)
}

func TestGATLearnsToAttend(t *testing.T) {
	// Each group has one informative neighbor (its feature equals the
	// label signal) and noisy neighbors; GAT must learn to attend to it
	// and classify well where a mean aggregator is diluted.
	rng := rand.New(rand.NewSource(11))
	const (
		n, in, classes, f = 64, 8, 2, 4
	)
	mkBatch := func() (*Matrix, *Matrix, []int32) {
		xs := NewMatrix(n, in)
		xn := NewMatrix(n*f, in)
		labels := make([]int32, n)
		for i := 0; i < n; i++ {
			label := int32(rng.Intn(classes))
			labels[i] = label
			informative := rng.Intn(f)
			for j := 0; j < f; j++ {
				row := xn.Row(i*f + j)
				for k := range row {
					row[k] = float32(rng.NormFloat64())
				}
				if j == informative {
					// Strong class signal on feature 0, marker on feature 1.
					row[0] = float32(label)*4 - 2
					row[1] = 5
				}
			}
		}
		return xs, xn, labels
	}
	gat := NewGATLayer(in, classes, false, rng)
	opt := NewAdam(0.02)
	var lastLoss float64
	for step := 0; step < 300; step++ {
		xs, xn, labels := mkBatch()
		gat.ZeroGrads()
		y := gat.Forward(xs, xn, f)
		loss, dOut := SoftmaxCrossEntropy(y, labels)
		gat.Backward(dOut)
		opt.Step(gat.Params(), gat.Grads())
		lastLoss = loss
	}
	if lastLoss > 0.25 {
		t.Fatalf("GAT failed to learn attention: final loss %.4f", lastLoss)
	}
	// The mean aggregator on the same task plateaus higher: the signal is
	// diluted 1/f.
	sage := NewSAGELayer(in, classes, false, rng)
	sopt := NewAdam(0.02)
	var sageLoss float64
	for step := 0; step < 300; step++ {
		xs, xn, labels := mkBatch()
		sage.ZeroGrads()
		y := sage.Forward(xs, MeanPool(xn, f))
		loss, dOut := SoftmaxCrossEntropy(y, labels)
		sage.Backward(dOut)
		sopt.Step(sage.Params(), sage.Grads())
		sageLoss = loss
	}
	if lastLoss >= sageLoss {
		t.Fatalf("GAT (%.4f) should beat mean aggregation (%.4f) on needle-in-group task",
			lastLoss, sageLoss)
	}
}

func TestGATTrainerLearns(t *testing.T) {
	store, attrs, ids := buildClassGraph(t, 300, 3)
	rng := rand.New(rand.NewSource(13))
	model := NewGATModel(8, 16, 3, rng)
	tr := NewGATTrainer(model, testView(store, attrs, 2, 1), 0, 5, 0.01)

	first := mustEpoch(t, func() (EpochResult, error) { return tr.TrainEpoch(0, ids, 32, rng) })
	var last EpochResult
	for e := 1; e < 5; e++ {
		e := e
		last = mustEpoch(t, func() (EpochResult, error) { return tr.TrainEpoch(e, ids, 32, rng) })
	}
	if last.MeanLoss >= first.MeanLoss*0.7 {
		t.Fatalf("GAT loss did not drop: %.4f -> %.4f", first.MeanLoss, last.MeanLoss)
	}
	if acc := mustAccuracy(t, tr.Accuracy, ids[:100]); acc < 0.6 {
		t.Fatalf("GAT accuracy = %.3f", acc)
	}
}

func TestGATTrainerBatchShapes(t *testing.T) {
	store, attrs, ids := buildClassGraph(t, 60, 2)
	rng := rand.New(rand.NewSource(14))
	tr := NewGATTrainer(NewGATModel(8, 8, 2, rng), testView(store, attrs, 2, 1), 0, 3, 0.01)
	b := mustBatch(t, tr.SampleBatch, ids[:10])
	if len(b.Hop1) != 30 || len(b.Hop2) != 90 {
		t.Fatalf("hops: %d/%d", len(b.Hop1), len(b.Hop2))
	}
	logits := tr.Forward(b)
	if logits.Rows != 10 || logits.Cols != 2 {
		t.Fatalf("logits %dx%d", logits.Rows, logits.Cols)
	}
}
