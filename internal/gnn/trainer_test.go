package gnn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"platod2gl/internal/core"
	"platod2gl/internal/dataset"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/sampler"
	"platod2gl/internal/storage"
	"platod2gl/internal/view"
)

// testView wraps store+attrs as the GraphView trainers consume, with the
// sampler settings the trainers used to hardcode.
func testView(store storage.TopologyStore, attrs *kvstore.Store, parallelism int, seed int64) view.GraphView {
	return view.NewLocal(store, attrs, sampler.Options{Parallelism: parallelism, Seed: seed})
}

// mustBatch samples a batch from a local view, failing the test on error.
func mustBatch(t testing.TB, sample func([]graph.VertexID) (*Batch, error), seeds []graph.VertexID) *Batch {
	t.Helper()
	b, err := sample(seeds)
	if err != nil {
		t.Fatalf("SampleBatch: %v", err)
	}
	return b
}

// mustEpoch runs one epoch, failing the test on error.
func mustEpoch(t testing.TB, f func() (EpochResult, error)) EpochResult {
	t.Helper()
	res, err := f()
	if err != nil {
		t.Fatalf("TrainEpoch: %v", err)
	}
	return res
}

// mustAccuracy evaluates accuracy, failing the test on error.
func mustAccuracy(t testing.TB, f func([]graph.VertexID) (float64, error), seeds []graph.VertexID) float64 {
	t.Helper()
	acc, err := f(seeds)
	if err != nil {
		t.Fatalf("Accuracy: %v", err)
	}
	return acc
}

// buildClassGraph creates a small homophilous graph: vertices of the same
// class link to each other, so neighbor aggregation is informative.
func buildClassGraph(t testing.TB, n int, classes int) (*storage.DynamicStore, *kvstore.Store, []graph.VertexID) {
	t.Helper()
	store := storage.NewDynamicStore(storage.Options{Tree: core.Options{Capacity: 32}})
	attrs := kvstore.New()
	dataset.AssignFeatures(attrs, 0, uint64(n), 8, classes, 0.3, 1)
	rng := rand.New(rand.NewSource(2))
	// Link each vertex to 6 random same-class vertices.
	byClass := make([][]graph.VertexID, classes)
	ids := make([]graph.VertexID, n)
	for i := 0; i < n; i++ {
		id := graph.MakeVertexID(0, uint64(i))
		ids[i] = id
		l, _ := attrs.Label(id)
		byClass[l] = append(byClass[l], id)
	}
	for i := 0; i < n; i++ {
		id := ids[i]
		l, _ := attrs.Label(id)
		peers := byClass[l]
		for j := 0; j < 6; j++ {
			store.AddEdge(graph.Edge{Src: id, Dst: peers[rng.Intn(len(peers))], Weight: 1})
		}
	}
	return store, attrs, ids
}

func TestModelForwardShapes(t *testing.T) {
	store, attrs, ids := buildClassGraph(t, 100, 3)
	rng := rand.New(rand.NewSource(3))
	model := NewModel(8, 16, 3, rng)
	tr := NewTrainer(model, testView(store, attrs, 4, 1), 0, 4, 3, 0.01)
	b := mustBatch(t, tr.SampleBatch, ids[:10])
	if len(b.Hop1) != 40 || len(b.Hop2) != b.NSelf*3 {
		t.Fatalf("hop sizes = %d/%d for a frontier of %d", len(b.Hop1), len(b.Hop2), b.NSelf)
	}
	logits := tr.Forward(b)
	if logits.Rows != 10 || logits.Cols != 3 {
		t.Fatalf("logits shape = %dx%d", logits.Rows, logits.Cols)
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	store, attrs, ids := buildClassGraph(t, 300, 3)
	rng := rand.New(rand.NewSource(5))
	model := NewModel(8, 16, 3, rng)
	tr := NewTrainer(model, testView(store, attrs, 4, 1), 0, 5, 5, 0.01)

	initial := tr.Loss(mustBatch(t, tr.SampleBatch, ids[:64]))
	var last EpochResult
	for e := 0; e < 5; e++ {
		e := e
		last = mustEpoch(t, func() (EpochResult, error) { return tr.TrainEpoch(e, ids, 32, rng) })
	}
	if last.MeanLoss >= initial*0.7 {
		t.Fatalf("loss did not drop: initial %.4f, final %.4f", initial, last.MeanLoss)
	}
}

func TestTrainingReachesUsefulAccuracy(t *testing.T) {
	store, attrs, ids := buildClassGraph(t, 400, 4)
	rng := rand.New(rand.NewSource(6))
	model := NewModel(8, 24, 4, rng)
	tr := NewTrainer(model, testView(store, attrs, 4, 1), 0, 5, 5, 0.02)
	train, test := ids[:300], ids[300:]
	for e := 0; e < 8; e++ {
		e := e
		mustEpoch(t, func() (EpochResult, error) { return tr.TrainEpoch(e, train, 32, rng) })
	}
	acc := mustAccuracy(t, tr.Accuracy, test)
	if acc < 0.6 { // random = 0.25
		t.Fatalf("test accuracy %.3f, want >= 0.6", acc)
	}
}

func TestDynamicGraphUpdatesReflectInSampling(t *testing.T) {
	// A dynamic trainer must see topology changes immediately: after
	// rewiring a vertex's edges, its sampled neighborhood changes.
	store, attrs, _ := buildClassGraph(t, 50, 2)
	rng := rand.New(rand.NewSource(7))
	model := NewModel(8, 8, 2, rng)
	tr := NewTrainer(model, testView(store, attrs, 4, 1), 0, 8, 2, 0.01)
	seed := graph.MakeVertexID(0, 0)

	before := mustBatch(t, tr.SampleBatch, []graph.VertexID{seed})
	// Rewire: remove all edges of seed, add one to a sentinel vertex.
	ids, _ := store.Neighbors(seed, 0)
	for _, dst := range ids {
		store.DeleteEdge(seed, dst, 0)
	}
	sentinel := graph.MakeVertexID(0, 49)
	store.AddEdge(graph.Edge{Src: seed, Dst: sentinel, Weight: 1})

	after := mustBatch(t, tr.SampleBatch, []graph.VertexID{seed})
	for _, n := range after.Hop1 {
		if n != sentinel {
			t.Fatalf("sampled stale neighbor %v after rewiring", n)
		}
	}
	_ = before
}

func TestEpochResultString(t *testing.T) {
	r := EpochResult{Epoch: 2, MeanLoss: 0.5, Batches: 3}
	if r.String() != "epoch 2: mean loss 0.5000 over 3 batches" {
		t.Fatalf("String = %q", r.String())
	}
}

// syntheticBatch is a block at train-cluster's shape — seeds seed rows,
// fan-outs f1×f2, dim-wide features — with no repeated vertex, built from
// random matrices with no store behind it: the frontier is the seeds and
// their hop-1 draws, and X has one row per position, in position order.
// TrainStep reads only the block, labels and fan-outs.
func syntheticBatch(rng *rand.Rand, seeds, f1, f2, dim, classes int) *Batch {
	n1 := seeds * f1
	n2 := (seeds + n1) * f2
	ids := make([]graph.VertexID, seeds+n1+n2)
	rows := make([]int32, len(ids))
	for i := range ids {
		ids[i] = graph.MakeVertexID(0, uint64(i))
		rows[i] = int32(i)
	}
	labels := make([]int32, seeds)
	for i := range labels {
		labels[i] = int32(rng.Intn(classes))
	}
	return &Batch{
		Seeds:  ids[:seeds],
		Hop1:   ids[seeds : seeds+n1],
		Hop2:   ids[seeds+n1:],
		F1:     f1,
		F2:     f2,
		X:      NewMatrix(len(ids), dim).Glorot(rng),
		NSelf:  seeds + n1,
		Rows:   rows,
		Labels: labels,
	}
}

// TestTrainStepMatchesFullBackward pins the trainer's weights-only first
// layer: steps with a full layer-1 Backward leave the same loss and
// parameter bits.
func TestTrainStepMatchesFullBackward(t *testing.T) {
	cut := NewTrainer(NewModel(16, 8, 4, rand.New(rand.NewSource(31))), nil, 0, 4, 3, 0.01)
	full := NewTrainer(NewModel(16, 8, 4, rand.New(rand.NewSource(31))), nil, 0, 4, 3, 0.01)
	rng := rand.New(rand.NewSource(32))
	for step := 0; step < 5; step++ {
		b := syntheticBatch(rng, 12, 4, 3, 16, 4)
		lossCut := cut.TrainStep(b)

		full.Model.ZeroGrads()
		lossFull, dLogits := SoftmaxCrossEntropy(full.Forward(b), b.Labels)
		dSelf, dHop1Pooled := full.Model.L2.Backward(dLogits)
		full.Model.L1.Backward(denseLayer1Grad(b, dSelf, dHop1Pooled))
		full.Opt.Step(full.Model.Params(), full.Model.Grads())

		if math.Float64bits(lossCut) != math.Float64bits(lossFull) {
			t.Fatalf("step %d: loss %v, want %v", step, lossCut, lossFull)
		}
		for i, p := range full.Model.Params() {
			sameBits(t, "param", cut.Model.Params()[i], p)
		}
	}
}

// TestSampleBatchRejectsOutOfRangeLabels: labels written for more classes
// than the model has make both trainers' SampleBatch fail with an error
// naming the vertex and its label, instead of a panic inside the loss.
func TestSampleBatchRejectsOutOfRangeLabels(t *testing.T) {
	v, ids := ogbnView(t, 20_000, 16, 8) // labels in [0, 8)
	labels, err := v.Labels(ids)
	if err != nil {
		t.Fatal(err)
	}
	var bad graph.VertexID
	var badLabel int32 = -1
	for i, l := range labels {
		if l >= 4 {
			bad, badLabel = ids[i], l
			break
		}
	}
	if badLabel < 0 {
		t.Fatal("no vertex has a label of 4 or more")
	}
	rng := rand.New(rand.NewSource(6))
	sage := NewTrainer(NewModel(16, 8, 4, rng), v, 0, 10, 5, 0.01)
	gat := NewGATTrainer(NewGATModel(16, 8, 4, rng), v, 0, 5, 0.01)
	for name, sample := range map[string]func([]graph.VertexID) (*Batch, error){
		"sage": sage.SampleBatch, "gat": gat.SampleBatch,
	} {
		b, err := sample([]graph.VertexID{bad})
		if err == nil {
			t.Fatalf("%s: SampleBatch accepted label %d for a 4-class model: %+v", name, badLabel, b.Labels)
		}
		for _, want := range []string{fmt.Sprint(bad), fmt.Sprintf("label %d", badLabel)} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q does not name %q", name, err, want)
			}
		}
	}
}
