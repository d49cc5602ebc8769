package gnn

import (
	"math"
	"math/rand"
	"slices"
	"sync"
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

// distinctIDs lists the distinct vertices of lists, in first-occurrence
// order: the map-based oracle of the block's frontier.
func distinctIDs(lists ...[]graph.VertexID) []graph.VertexID {
	seen := map[graph.VertexID]bool{}
	var out []graph.VertexID
	for _, l := range lists {
		for _, v := range l {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// denseForward is the oracle of the block forward: each distinct vertex
// computed once, indexed by vertex id through maps instead of the block's
// rows. Layer 1 runs on the gathered feature rows of the frontier,
// distinct(seeds ∪ hop 1), against the pooled gathered rows of their hop-2
// draws; layer 2 on the gathered hidden states of the distinct seeds
// against the pooled ones of their hop-1 draws; and each seed position
// reads its seed's logits.
func denseForward(m *Model, b *Batch) *Matrix {
	feat := map[graph.VertexID][]float32{}
	positions := slices.Concat(b.Seeds, b.Hop1, b.Hop2)
	for p, id := range positions {
		feat[id] = b.X.Row(int(b.Rows[p]))
	}
	gather := func(rows map[graph.VertexID][]float32, ids []graph.VertexID) *Matrix {
		out := NewMatrix(len(ids), len(rows[ids[0]]))
		for i, id := range ids {
			copy(out.Row(i), rows[id])
		}
		return out
	}
	frontier, seeds := distinctIDs(b.Seeds, b.Hop1), distinctIDs(b.Seeds)
	h1 := m.L1.Forward(gather(feat, frontier), MeanPool(gather(feat, b.Hop2), b.F2))
	hidden := map[graph.VertexID][]float32{}
	for j, id := range frontier {
		hidden[id] = h1.Row(j)
	}
	out := m.L2.Forward(gather(hidden, seeds), MeanPool(gather(hidden, b.Hop1), b.F1))
	logits := map[graph.VertexID][]float32{}
	for d, id := range seeds {
		logits[id] = out.Row(d)
	}
	return gather(logits, b.Seeds)
}

// denseLayer1Grad is dL/dh1 of Trainer.backward written with the free
// matrix functions: the distinct seeds' self gradients at their rows and
// the pooled hop-1 gradients spread by MeanPoolBackward, summed into the
// frontier rows by ScatterAddRows.
func denseLayer1Grad(b *Batch, dSelf, dHop1Pooled *Matrix) *Matrix {
	rows := make([]int32, dSelf.Rows)
	for d := range rows {
		rows[d] = int32(d)
	}
	rows = append(rows, b.hop1Rows()...)
	return ScatterAddRows(VStack(dSelf, MeanPoolBackward(dHop1Pooled, b.F1)), rows, b.NSelf)
}

// backprop runs Trainer.backward's steps on m through the dense functions
// after a forward pass that produced logits, with zeroed gradients
// beforehand, and returns layer 1's dL/dz and the gradients layer 2 sent
// back: the distinct seeds' and their pooled hop-1 draws'.
func backprop(m *Model, b *Batch, logits *Matrix) (dz, dSelf, dHop1Pooled *Matrix) {
	_, dLogits := SoftmaxCrossEntropy(logits, b.Labels)
	dSelf, dHop1Pooled = m.L2.Backward(ScatterAddRows(dLogits, b.seedRows(), b.distinctSeeds()))
	return m.L1.BackwardWeights(denseLayer1Grad(b, dSelf, dHop1Pooled)), dSelf, dHop1Pooled
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
// the block Forward gives the dense oracle's logits bit for bit, with
// distinct seeds and with repeated ones.
func TestBlockForwardMatchesDense(t *testing.T) {
	v, ids := ogbnView(t, 20_000, 16, 4)
	rng := rand.New(rand.NewSource(4))
	tr := NewTrainer(NewModel(16, 8, 4, rng), v, 0, 10, 5, 0.01)
	for step := 0; step < 4; step++ {
		seeds := seedBatch(rng, ids, 64)
		if step%2 == 1 {
			seeds = append(seeds, seeds[:9]...)
		}
		b := mustBatch(t, tr.SampleBatch, seeds)
		sameBits(t, "logits", tr.Forward(b), denseForward(tr.Model, b))
		tr.TrainStep(b)
	}
}

// TestLayer1GradientsWithoutRepeatsBitIdentical: on a block in which no
// vertex repeats, every gradient of a block step equals the dense
// backward's bit for bit.
func TestLayer1GradientsWithoutRepeatsBitIdentical(t *testing.T) {
	block := NewTrainer(NewModel(16, 8, 4, rand.New(rand.NewSource(41))), nil, 0, 4, 3, 0.01)
	dense := NewModel(16, 8, 4, rand.New(rand.NewSource(41)))
	b := syntheticBatch(rand.New(rand.NewSource(42)), 12, 4, 3, 16, 4)
	block.Model.ZeroGrads()
	_, dLogits := SoftmaxCrossEntropy(block.Forward(b), b.Labels)
	block.backward(b, dLogits)
	backprop(dense, b, denseForward(dense, b))
	for i, g := range dense.Grads() {
		sameBits(t, "grad", block.Model.Grads()[i], g)
	}
}

// TestLayer1GradientsWithRepeats: on a sampled batch whose seeds and hop-1
// draws repeat vertices, the block step's gradients equal the dense
// backward's bit for bit, and layer 1's Wself gradient, summed per vertex
// and then projected, matches a float64 reference that projects every
// seed and hop-1 position on its own, within 1e-5 of the sum of its terms'
// magnitudes.
func TestLayer1GradientsWithRepeats(t *testing.T) {
	v, ids := ogbnView(t, 20_000, 16, 4)
	rng := rand.New(rand.NewSource(5))
	block := NewTrainer(NewModel(16, 8, 4, rand.New(rand.NewSource(51))), v, 0, 10, 5, 0.01)
	dense := NewModel(16, 8, 4, rand.New(rand.NewSource(51)))
	seeds := seedBatch(rng, ids, 64)
	b := mustBatch(t, block.SampleBatch, append(seeds, seeds[:5]...))
	if b.NSelf >= b.distinctSeeds()+len(b.Hop1) {
		t.Fatalf("a frontier of %d for %d seed and hop-1 positions: no repeat to test", b.NSelf, b.distinctSeeds()+len(b.Hop1))
	}
	block.Model.ZeroGrads()
	_, dLogits := SoftmaxCrossEntropy(block.Forward(b), b.Labels)
	block.backward(b, dLogits)
	_, dSelf, dHop1Pooled := backprop(dense, b, denseForward(dense, b))
	for i, g := range dense.Grads() {
		sameBits(t, "grad", block.Model.Grads()[i], g)
	}

	// Position p of the seeds' distinct rows and their hop-1 draws sends
	// back g_p; layer 1's output row r passes it where the ReLU is open.
	got, out := block.Model.L1.GWself, block.Model.L1.out
	ref := make([]float64, len(got.Data))
	mag := make([]float64, len(got.Data))
	project := func(row int, g []float32, scale float64) {
		for a, x := range b.X.Row(row) {
			for c, d := range g {
				if out.At(row, c) > 0 {
					p := float64(x) * float64(d) * scale
					ref[a*got.Cols+c] += p
					mag[a*got.Cols+c] += math.Abs(p)
				}
			}
		}
	}
	for d := 0; d < dSelf.Rows; d++ {
		project(d, dSelf.Row(d), 1)
	}
	for p, r := range b.hop1Rows() {
		project(int(r), dHop1Pooled.Row(p/b.F1), 1/float64(b.F1))
	}
	for k, want := range ref {
		if diff := math.Abs(float64(got.Data[k]) - want); diff > 1e-5*mag[k] {
			t.Fatalf("GWself[%d] = %v, float64 reference %v (|terms| %v)", k, got.Data[k], want, mag[k])
		}
	}
}

// TestGATBlockMatchesDense: the attention trainer's step on a sampled
// batch with repeated seeds gives the gradients of the same layers run on
// gathered rows, with the layer-1 gradient summed by ScatterAddRows.
func TestGATBlockMatchesDense(t *testing.T) {
	v, ids := ogbnView(t, 20_000, 16, 4)
	rng := rand.New(rand.NewSource(6))
	block := NewGATTrainer(NewGATModel(16, 8, 4, rand.New(rand.NewSource(61))), v, 0, 4, 0.01)
	dense := NewGATModel(16, 8, 4, rand.New(rand.NewSource(61)))
	seeds := seedBatch(rng, ids, 32)
	b := mustBatch(t, block.SampleBatch, append(seeds, seeds[:3]...))
	nD, f := b.distinctSeeds(), block.Fanout

	h1 := dense.L1.Forward(SliceRows(b.X, 0, b.NSelf), GatherRows(b.X, b.hop2Rows()), f)
	logits := GatherRows(dense.L2.Forward(SliceRows(h1, 0, nD), GatherRows(h1, b.hop1Rows()), f), b.seedRows())
	_, dLogits := SoftmaxCrossEntropy(logits, b.Labels)
	dSelf, dHop1 := dense.L2.Backward(ScatterAddRows(dLogits, b.seedRows(), nD))
	rows := make([]int32, nD)
	for d := range rows {
		rows[d] = int32(d)
	}
	dense.L1.BackwardWeights(ScatterAddRows(VStack(dSelf, dHop1), append(rows, b.hop1Rows()...), b.NSelf))

	sameBits(t, "logits", block.Forward(b), logits)
	block.Model.ZeroGrads()
	_, dLogits = SoftmaxCrossEntropy(block.Forward(b), b.Labels)
	dS, dH := block.Model.L2.Backward(b.distinctSeedGrad(dLogits))
	block.Model.L1.BackwardWeights(b.layer1Grad(nil, dS, dH, false))
	for i, g := range dense.Grads() {
		sameBits(t, "GAT grad", block.Model.Grads()[i], g)
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
// input: its batches hold 2336 feature rows each on average (18 691 in
// all), and a TrainStep makes at most 29 allocations. The count is exact
// once AllocsPerRun's warm-up step has allocated Adam's moments, so the
// ceiling is today's count and one more allocation per step fails. A
// change that lowers the count lowers the ceiling with it.
func TestTrainStepAllocs(t *testing.T) {
	tr, batches, rows := trainStepInput(t)
	if rows != 18_691 {
		t.Fatalf("%d feature rows in %d batches, want 18 691 (2336 per batch)", rows, len(batches))
	}
	i := 0
	allocs := testing.AllocsPerRun(len(batches), func() {
		tr.TrainStep(batches[i%len(batches)])
		i++
	})
	if allocs > 29 {
		t.Fatalf("TrainStep makes %v allocations, ceiling 29", allocs)
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

// fuzzBlockView is FuzzBlock's graph behind view.Local: 24 vertices, each
// with three weighted out-edges among the first 32 ids, so ids 24-31 have
// none and sample themselves, and a 4-wide feature row for every id below
// 28.
var fuzzBlockView = sync.OnceValue(func() view.GraphView {
	store := storage.NewDynamicStore(storage.Options{})
	attrs := kvstore.New()
	rng := rand.New(rand.NewSource(9))
	for v := uint64(0); v < 32; v++ {
		if v < 24 {
			for range 3 {
				store.AddEdge(graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(rng.Intn(32)), Weight: 1 + rng.Float64()})
			}
		}
		if v < 28 {
			attrs.SetFeatures(graph.VertexID(v), []float32{float32(v), rng.Float32(), -rng.Float32(), 1})
		}
	}
	return testView(store, attrs, 2, 3)
})

// FuzzBlock builds blocks for seed lists with repeats and checks them
// against a map oracle: the frontier is distinct(seeds ∪ hop 1) in
// first-occurrence order and NSelf its length, the hops hold a block per
// distinct seed and per frontier vertex, X's rows are distinct vertices
// that cover every position and each position's row names its vertex, and
// the block forward gives the dense oracle's logits bit for bit.
func FuzzBlock(f *testing.F) {
	f.Add([]byte{0, 1, 2}, uint8(0x21))
	f.Add([]byte{5, 5, 30, 5, 31, 2}, uint8(0x13))
	f.Add([]byte{7}, uint8(0x44))
	model := NewModel(4, 8, 3, rand.New(rand.NewSource(10)))
	f.Fuzz(func(t *testing.T, data []byte, fanouts uint8) {
		if len(data) == 0 {
			return
		}
		seeds := make([]graph.VertexID, len(data))
		for i, b := range data {
			seeds[i] = graph.VertexID(b % 32)
		}
		f1, f2 := int(fanouts&3)+1, int(fanouts>>4&3)+1
		cv := &countingView{GraphView: fuzzBlockView()}
		b, err := SampleBlock(cv, seeds, 0, f1, f2, 4)
		if err != nil {
			t.Fatal(err)
		}
		asked := cv.features[0]
		frontier := distinctIDs(seeds, b.Hop1)
		if b.NSelf != len(frontier) || !slices.Equal(asked[:min(b.NSelf, len(asked))], frontier) {
			t.Fatalf("frontier %v (NSelf %d), want %v", asked[:min(b.NSelf, len(asked))], b.NSelf, frontier)
		}
		if len(b.Hop1) != len(distinctIDs(seeds))*f1 || len(b.Hop2) != b.NSelf*f2 {
			t.Fatalf("hops of %d and %d draws for %d distinct seeds and a frontier of %d at %dx%d",
				len(b.Hop1), len(b.Hop2), len(distinctIDs(seeds)), b.NSelf, f1, f2)
		}
		positions := slices.Concat(b.Seeds, b.Hop1, b.Hop2)
		if !slices.Equal(asked, distinctIDs(positions)) || b.X.Rows != len(asked) {
			t.Fatalf("X's rows are %v (%d), want the distinct positions %v", asked, b.X.Rows, distinctIDs(positions))
		}
		for p, id := range positions {
			if asked[b.Rows[p]] != id {
				t.Fatalf("position %d (%v) reads the row of %v", p, id, asked[b.Rows[p]])
			}
		}
		tr := NewTrainer(model, cv, 0, f1, f2, 0.01)
		sameBits(t, "logits", tr.Forward(b), denseForward(model, b))
	})
}
