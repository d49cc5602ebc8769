package gnn

import (
	"math"
	"math/rand"
	"testing"

	"platod2gl/internal/dataset"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/storage"
	"platod2gl/internal/view"
)

// ogbnView is train-cluster's graph on an in-process store: OGBN-sim scaled
// to about events generated events, and a learnable dim-wide feature row
// and a label for each of its vertices, which it returns.
func ogbnView(tb testing.TB, events, dim, classes int) (view.GraphView, []graph.VertexID) {
	tb.Helper()
	spec := dataset.OGBNSim()
	spec = spec.Scale(float64(events) / float64(spec.TotalEvents()))
	store := storage.NewDynamicStore(storage.Options{})
	gen := dataset.NewGenerator(spec, dataset.BuildMix, 1)
	for left := events; left > 0; left -= 8192 {
		store.ApplyBatch(gen.Next(min(left, 8192)))
	}
	n := int(spec.Relations[0].NumSrc)
	attrs := kvstore.New()
	dataset.AssignFeatures(attrs, dataset.VTProduct, uint64(n), dim, classes, 2.0, 1)
	ids := make([]graph.VertexID, n)
	for i := range ids {
		ids[i] = graph.MakeVertexID(dataset.VTProduct, uint64(i))
	}
	return testView(store, attrs, 1, 1), ids
}

// seedBatch draws size distinct vertices of ids.
func seedBatch(rng *rand.Rand, ids []graph.VertexID, size int) []graph.VertexID {
	seeds := make([]graph.VertexID, size)
	for i, j := range rng.Perm(len(ids))[:size] {
		seeds[i] = ids[j]
	}
	return seeds
}

// countingView records the id list of every Features call made through it.
type countingView struct {
	view.GraphView
	features [][]graph.VertexID
}

func (v *countingView) Features(nodes []graph.VertexID, dim int) ([]float32, error) {
	v.features = append(v.features, append([]graph.VertexID(nil), nodes...))
	return v.GraphView.Features(nodes, dim)
}

// denseForward is the layout the block replaced, kept as the oracle: every
// position's feature row materialized, layer 1 projecting all of the self
// positions, and the pools reading the materialized child rows.
func denseForward(m *Model, b *Batch) *Matrix {
	nSeeds := len(b.Seeds)
	xSeeds := GatherRows(b.X, b.Rows[:nSeeds])
	xHop1 := GatherRows(b.X, b.hop1Rows())
	xHop2 := GatherRows(b.X, b.hop2Rows())
	h1 := m.L1.Forward(VStack(xSeeds, xHop1), VStack(MeanPool(xHop1, b.F1), MeanPool(xHop2, b.F2)))
	return m.L2.Forward(SliceRows(h1, 0, nSeeds), MeanPool(SliceRows(h1, nSeeds, h1.Rows), b.F1))
}

// backprop runs Trainer.backward's steps on m after a forward pass that
// produced logits, with zeroed gradients beforehand, and returns layer 1's
// dL/dz.
func backprop(m *Model, b *Batch, logits *Matrix) *Matrix {
	_, dLogits := SoftmaxCrossEntropy(logits, b.Labels)
	dH1Seeds, dH1Hop1Pooled := m.L2.Backward(dLogits)
	return m.L1.BackwardWeights(VStack(dH1Seeds, MeanPoolBackward(dH1Hop1Pooled, b.F1)))
}

// TestSampleBatchFetchesEachVertexOnce: both trainers' builders ask the
// view for features once per batch, each id at most once, and every
// position reads its own vertex's row out of the block.
func TestSampleBatchFetchesEachVertexOnce(t *testing.T) {
	inner, ids := ogbnView(t, 20_000, 16, 4)
	rng := rand.New(rand.NewSource(3))
	cv := &countingView{GraphView: inner}
	sage := NewTrainer(NewModel(16, 8, 4, rng), cv, 0, 10, 5, 0.01)
	gat := NewGATTrainer(NewGATModel(16, 8, 4, rng), cv, 0, 5, 0.01)
	for name, sample := range map[string]func([]graph.VertexID) (*Batch, error){
		"sage": sage.SampleBatch, "gat": gat.SampleBatch,
	} {
		cv.features = nil
		b := mustBatch(t, sample, seedBatch(rng, ids, 64))
		if len(cv.features) != 1 {
			t.Fatalf("%s: %d Features calls, want 1", name, len(cv.features))
		}
		asked := cv.features[0]
		seen := map[graph.VertexID]bool{}
		for _, id := range asked {
			if seen[id] {
				t.Fatalf("%s: Features asked for %v twice", name, id)
			}
			seen[id] = true
		}
		positions := append(append(append([]graph.VertexID(nil), b.Seeds...), b.Hop1...), b.Hop2...)
		if b.X.Rows != len(asked) || len(b.Rows) != len(positions) {
			t.Fatalf("%s: X has %d rows for %d ids, Rows %d for %d positions", name, b.X.Rows, len(asked), len(b.Rows), len(positions))
		}
		if b.X.Rows >= len(positions) {
			t.Fatalf("%s: %d distinct rows for %d positions: the batch repeats no vertex", name, b.X.Rows, len(positions))
		}
		self := map[graph.VertexID]bool{}
		for _, id := range positions[:len(b.Seeds)+len(b.Hop1)] {
			self[id] = true
		}
		if b.NSelf != len(self) {
			t.Fatalf("%s: NSelf = %d, want %d distinct seed and hop-1 vertices", name, b.NSelf, len(self))
		}
		want, err := inner.Features(positions, 16)
		if err != nil {
			t.Fatal(err)
		}
		for p, id := range positions {
			r := int(b.Rows[p])
			if asked[r] != id || (self[id] != (r < b.NSelf)) {
				t.Fatalf("%s: position %d (%v) maps to row %d (%v), NSelf %d", name, p, id, r, asked[r], b.NSelf)
			}
			for j, v := range b.X.Row(r) {
				if math.Float32bits(v) != math.Float32bits(want[p*16+j]) {
					t.Fatalf("%s: position %d feature %d = %v, want %v", name, p, j, v, want[p*16+j])
				}
			}
		}
	}
}

// TestBlockForwardMatchesDense: on sampled batches, with trained weights,
// the block Forward gives the dense oracle's logits bit for bit.
func TestBlockForwardMatchesDense(t *testing.T) {
	v, ids := ogbnView(t, 20_000, 16, 4)
	rng := rand.New(rand.NewSource(4))
	tr := NewTrainer(NewModel(16, 8, 4, rng), v, 0, 10, 5, 0.01)
	for step := 0; step < 4; step++ {
		b := mustBatch(t, tr.SampleBatch, seedBatch(rng, ids, 64))
		sameBits(t, "logits", tr.Forward(b), denseForward(tr.Model, b))
		tr.TrainStep(b)
	}
}

// TestLayer1GradientsWithoutRepeatsBitIdentical: when no vertex repeats, the
// scatter into distinct self rows is the identity, and every gradient
// equals the dense BackwardWeights' bit for bit.
func TestLayer1GradientsWithoutRepeatsBitIdentical(t *testing.T) {
	block := NewTrainer(NewModel(16, 8, 4, rand.New(rand.NewSource(41))), nil, 0, 4, 3, 0.01)
	dense := NewModel(16, 8, 4, rand.New(rand.NewSource(41)))
	b := syntheticBatch(rand.New(rand.NewSource(42)), 12, 4, 3, 16, 4)
	backprop(block.Model, b, block.Forward(b))
	backprop(dense, b, denseForward(dense, b))
	for i, g := range dense.Grads() {
		sameBits(t, "grad", block.Model.Grads()[i], g)
	}
}

// TestLayer1GradientsWithRepeats: on a sampled batch, whose self positions
// repeat vertices, the summed-then-projected Wself gradient matches a
// float64 reference within 1e-5 of the sum of its terms' magnitudes. Every
// other gradient reads the same inputs in the same order as the dense
// path, so it stays bit-identical.
func TestLayer1GradientsWithRepeats(t *testing.T) {
	v, ids := ogbnView(t, 20_000, 16, 4)
	rng := rand.New(rand.NewSource(5))
	block := NewTrainer(NewModel(16, 8, 4, rand.New(rand.NewSource(51))), v, 0, 10, 5, 0.01)
	dense := NewModel(16, 8, 4, rand.New(rand.NewSource(51)))
	b := mustBatch(t, block.SampleBatch, seedBatch(rng, ids, 64))
	if b.NSelf >= len(b.selfRows()) {
		t.Fatalf("%d distinct self rows for %d self positions: no repeat to test", b.NSelf, len(b.selfRows()))
	}
	dz := backprop(block.Model, b, block.Forward(b))
	backprop(dense, b, denseForward(dense, b))

	got := block.Model.L1.GWself
	ref := make([]float64, len(got.Data))
	mag := make([]float64, len(got.Data))
	for i, r := range b.selfRows() {
		for a, x := range b.X.Row(int(r)) {
			for c, d := range dz.Row(i) {
				p := float64(x) * float64(d)
				ref[a*got.Cols+c] += p
				mag[a*got.Cols+c] += math.Abs(p)
			}
		}
	}
	for k, want := range ref {
		if diff := math.Abs(float64(got.Data[k]) - want); diff > 1e-5*mag[k] {
			t.Fatalf("GWself[%d] = %v, float64 reference %v (|terms| %v)", k, got.Data[k], want, mag[k])
		}
	}
	for i, g := range dense.Grads() {
		if i == 0 { // GWself
			continue
		}
		sameBits(t, "grad", block.Model.Grads()[i], g)
	}
}

// trainStepInput is BenchmarkGNNTrainStep's input: a trainer over
// train-cluster's graph through view.Local — OGBN-sim scaled to 100 000
// events, fan-outs 10×5, 64 features → 32 hidden → 8 classes — and eight
// batches of 256 seeds sampled from it, with their total feature rows.
func trainStepInput(tb testing.TB) (tr *Trainer, batches []*Batch, rows int) {
	v, ids := ogbnView(tb, 100_000, 64, 8)
	rng := rand.New(rand.NewSource(8))
	tr = NewTrainer(NewModel(64, 32, 8, rng), v, 0, 10, 5, 0.01)
	batches = make([]*Batch, 8)
	for i := range batches {
		batches[i] = mustBatch(tb, tr.SampleBatch, seedBatch(rng, ids, 256))
		rows += batches[i].X.Rows
	}
	return tr, batches, rows
}

// TestTrainStepAllocs pins the cost of a step on BenchmarkGNNTrainStep's
// input: its batches hold 2639 feature rows each on average (21 115 in
// all), and a TrainStep makes at most 39 allocations. The count is exact
// once AllocsPerRun's warm-up step has allocated Adam's moments, so the
// ceiling is today's count and one more allocation per step fails. A
// change that lowers the count lowers the ceiling with it.
func TestTrainStepAllocs(t *testing.T) {
	tr, batches, rows := trainStepInput(t)
	if rows != 21_115 {
		t.Fatalf("%d feature rows in %d batches, want 21 115 (2639 per batch)", rows, len(batches))
	}
	i := 0
	allocs := testing.AllocsPerRun(len(batches), func() {
		tr.TrainStep(batches[i%len(batches)])
		i++
	})
	if allocs > 39 {
		t.Fatalf("TrainStep makes %v allocations, ceiling 39", allocs)
	}
}

// BenchmarkGNNTrainStep times one TrainStep on trainStepInput's batches.
// rows/batch is the block's distinct vertices per batch.
func BenchmarkGNNTrainStep(b *testing.B) {
	tr, batches, rows := trainStepInput(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.TrainStep(batches[i%len(batches)])
	}
	b.ReportMetric(float64(rows)/float64(len(batches)), "rows/batch")
}
