package platod2gl_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"platod2gl"
)

func TestPublicAPIBasics(t *testing.T) {
	g := platod2gl.New()
	if !g.AddEdge(platod2gl.Edge{Src: 1, Dst: 2, Weight: 0.5}) {
		t.Fatal("AddEdge returned false for new edge")
	}
	if w, ok := g.EdgeWeight(1, 2, 0); !ok || math.Abs(w-0.5) > 1e-12 {
		t.Fatalf("EdgeWeight = %v,%v", w, ok)
	}
	if !g.UpdateEdgeWeight(1, 2, 0, 2) {
		t.Fatal("UpdateEdgeWeight failed")
	}
	if g.Degree(1, 0) != 1 || g.NumEdges() != 1 {
		t.Fatalf("degree=%d edges=%d", g.Degree(1, 0), g.NumEdges())
	}
	if !g.DeleteEdge(1, 2, 0) || g.NumEdges() != 0 {
		t.Fatal("DeleteEdge failed")
	}
}

func TestPublicAPIOptions(t *testing.T) {
	g := platod2gl.New(
		platod2gl.WithCapacity(32),
		platod2gl.WithAlpha(2),
		platod2gl.WithoutCompression(),
		platod2gl.WithWorkers(2),
		platod2gl.WithSamplerParallelism(2),
		platod2gl.WithSeed(9),
	)
	for i := uint64(0); i < 500; i++ {
		g.AddEdge(platod2gl.Edge{Src: 7, Dst: platod2gl.VertexID(i), Weight: 1})
	}
	if g.Degree(7, 0) != 500 {
		t.Fatalf("degree = %d", g.Degree(7, 0))
	}
	if g.LeafUpdateShare() <= 0 {
		t.Fatal("LeafUpdateShare not tracked")
	}
}

func TestPublicAPIBatchAndSampling(t *testing.T) {
	g := platod2gl.New(platod2gl.WithSeed(3))
	var events []platod2gl.Event
	for src := uint64(0); src < 20; src++ {
		for j := uint64(0); j < 10; j++ {
			events = append(events, platod2gl.Event{
				Kind: platod2gl.AddEdge,
				Edge: platod2gl.Edge{
					Src: platod2gl.VertexID(src), Dst: platod2gl.VertexID(100 + src*10 + j),
					Weight: float64(j + 1),
				},
				Timestamp: int64(src*10 + j),
			})
		}
	}
	g.Apply(events)
	if g.NumEdges() != 200 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	nb := g.SampleNeighbors([]platod2gl.VertexID{0, 1}, 0, 5)
	if len(nb.Neighbors) != 10 {
		t.Fatalf("sampled %d", len(nb.Neighbors))
	}
	sg := g.SampleSubgraph([]platod2gl.VertexID{0}, platod2gl.MetaPath{0, 0}, []int{3, 2})
	if sg.NumNodes() != 1+3+6 {
		t.Fatalf("subgraph nodes = %d", sg.NumNodes())
	}
	rng := rand.New(rand.NewSource(1))
	nodes := g.SampleNodes(0, 7, rng)
	if len(nodes) != 7 {
		t.Fatalf("SampleNodes = %d", len(nodes))
	}
}

func TestPublicAPIAttributes(t *testing.T) {
	g := platod2gl.New()
	id := platod2gl.MakeVertexID(1, 5)
	g.SetFeatures(id, []float32{1, 2})
	g.SetLabel(id, 3)
	if f, ok := g.Features(id); !ok || f[1] != 2 {
		t.Fatalf("Features = %v,%v", f, ok)
	}
	if l, ok := g.Label(id); !ok || l != 3 {
		t.Fatalf("Label = %v,%v", l, ok)
	}
	m := g.GatherFeatures([]platod2gl.VertexID{id, platod2gl.MakeVertexID(1, 6)}, 2)
	if len(m) != 4 || m[0] != 1 || m[2] != 0 {
		t.Fatalf("GatherFeatures = %v", m)
	}
}

func TestPublicAPIDatasetGeneration(t *testing.T) {
	g := platod2gl.New()
	spec := platod2gl.OGBNSpec().Scale(1e-4)
	gen := platod2gl.NewEventGenerator(spec, platod2gl.BuildMix, 1)
	for i := 0; i < 5; i++ {
		g.Apply(gen.Next(1000))
	}
	if g.NumEdges() == 0 {
		t.Fatal("no edges loaded from generator")
	}
	if g.MemoryBytes() <= 0 {
		t.Fatal("MemoryBytes not positive")
	}
}

func TestPublicAPIEndToEndTraining(t *testing.T) {
	g := platod2gl.New(platod2gl.WithSeed(5))
	const n, classes, dim = 200, 3, 8
	g.AssignSyntheticFeatures(0, n, dim, classes, 0.2, 1)
	// Homophilous edges: same-label vertices linked.
	byClass := map[int32][]platod2gl.VertexID{}
	var ids []platod2gl.VertexID
	for i := uint64(0); i < n; i++ {
		id := platod2gl.MakeVertexID(0, i)
		ids = append(ids, id)
		l, _ := g.Label(id)
		byClass[l] = append(byClass[l], id)
	}
	rng := rand.New(rand.NewSource(2))
	for _, id := range ids {
		l, _ := g.Label(id)
		peers := byClass[l]
		for j := 0; j < 5; j++ {
			g.AddEdge(platod2gl.Edge{Src: id, Dst: peers[rng.Intn(len(peers))], Weight: 1})
		}
	}
	model := platod2gl.NewModel(dim, 16, classes, rng)
	tr := g.NewTrainer(model, 0, 4, 4, 0.02)
	first, err := tr.TrainEpoch(0, ids, 32, rng)
	if err != nil {
		t.Fatalf("epoch 0: %v", err)
	}
	var last float64
	for e := 1; e < 5; e++ {
		res, err := tr.TrainEpoch(e, ids, 32, rng)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		last = res.MeanLoss
	}
	if last >= first.MeanLoss {
		t.Fatalf("training loss did not decrease: %.4f -> %.4f", first.MeanLoss, last)
	}
}

func TestPublicAPIExtendedSurface(t *testing.T) {
	g := platod2gl.New(platod2gl.WithSeed(2))
	rng := rand.New(rand.NewSource(1))

	// Uniform sampling ignores weights.
	g.AddEdge(platod2gl.Edge{Src: 1, Dst: 10, Weight: 100})
	g.AddEdge(platod2gl.Edge{Src: 1, Dst: 20, Weight: 1})
	nb := g.SampleNeighborsUniform([]platod2gl.VertexID{1}, 0, 10000)
	heavy := 0
	for _, id := range nb.Neighbors {
		if id == 10 {
			heavy++
		}
	}
	if f := float64(heavy) / 10000; f < 0.45 || f > 0.55 {
		t.Fatalf("uniform sampling skewed: %.3f", f)
	}

	// Edge attributes round-trip.
	k := platod2gl.EdgeKey{Src: 1, Dst: 10}
	g.SetEdgeFeatures(k, []float32{3, 4})
	if f, ok := g.EdgeFeatures(k); !ok || f[1] != 4 {
		t.Fatalf("EdgeFeatures = %v,%v", f, ok)
	}

	// Model checkpoint through the API.
	m1 := platod2gl.NewModel(4, 8, 2, rng)
	m2 := platod2gl.NewModel(4, 8, 2, rng)
	var buf bytes.Buffer
	if err := platod2gl.SaveModelParams(&buf, m1.Params()); err != nil {
		t.Fatal(err)
	}
	if err := platod2gl.LoadModelParams(&buf, m2.Params()); err != nil {
		t.Fatal(err)
	}
	if m1.Params()[0].Data[0] != m2.Params()[0].Data[0] {
		t.Fatal("checkpoint round-trip diverged")
	}

	// GAT model construction + one training step on a tiny graph.
	g.AssignSyntheticFeatures(2, 60, 4, 2, 0.3, 5)
	var ids []platod2gl.VertexID
	for i := uint64(0); i < 60; i++ {
		id := platod2gl.MakeVertexID(2, i)
		ids = append(ids, id)
	}
	for _, id := range ids {
		for j := 0; j < 4; j++ {
			g.AddEdge(platod2gl.Edge{Src: id, Dst: ids[rng.Intn(len(ids))], Type: 1, Weight: 1})
		}
	}
	gat := platod2gl.NewGATModel(4, 8, 2, rng)
	gtr := g.NewGATTrainer(gat, 1, 3, 0.01)
	gb, err := gtr.SampleBatch(ids[:16])
	if err != nil {
		t.Fatalf("GAT sample: %v", err)
	}
	if loss := gtr.TrainStep(gb); loss <= 0 {
		t.Fatalf("GAT loss = %v", loss)
	}

	// Link trainer through the API.
	lm := platod2gl.NewLinkModel(4, 8, rng)
	ltr := g.NewLinkTrainer(lm, 1, 3, 0.01, ids, 9)
	pos := []platod2gl.Edge{{Src: ids[0], Dst: ids[1]}, {Src: ids[2], Dst: ids[3]}}
	if loss, err := ltr.TrainStep(pos); err != nil || loss <= 0 {
		t.Fatalf("link loss = %v err = %v", loss, err)
	}
	if scores, err := ltr.Score(pos); err != nil || len(scores) != 2 {
		t.Fatalf("scores = %v err = %v", scores, err)
	}

	// Random walk through the API (already covered in integration, but the
	// GAT graph gives a multi-edge surface).
	walks := g.RandomWalk(ids[:3], 1, 2)
	if len(walks) != 3 || len(walks[0]) != 3 {
		t.Fatalf("walks shape %dx%d", len(walks), len(walks[0]))
	}
	// A negative length is a walk of no steps, not a panic.
	walks = g.RandomWalk(ids[:3], 1, -2)
	if len(walks) != 3 || len(walks[0]) != 1 || walks[0][0] != ids[0] {
		t.Fatalf("length -2: walks %v", walks)
	}
}

func TestPublicAPIRangeQueries(t *testing.T) {
	g := platod2gl.New()
	// Heterogeneous neighbors: type-0 and type-1 destinations.
	for i := uint64(0); i < 10; i++ {
		g.AddEdge(platod2gl.Edge{Src: 5, Dst: platod2gl.MakeVertexID(0, i), Weight: 1})
	}
	for i := uint64(0); i < 4; i++ {
		g.AddEdge(platod2gl.Edge{Src: 5, Dst: platod2gl.MakeVertexID(1, i), Weight: 2})
	}
	t0, w0 := g.NeighborsOfType(5, 0, 0)
	t1, w1 := g.NeighborsOfType(5, 0, 1)
	if len(t0) != 10 || len(t1) != 4 {
		t.Fatalf("type bands: %d/%d, want 10/4", len(t0), len(t1))
	}
	for _, id := range t1 {
		if id.Type() != 1 {
			t.Fatalf("type-1 band returned %v", id)
		}
	}
	if w0[0] != 1 || w1[0] != 2 {
		t.Fatalf("weights: %v %v", w0[0], w1[0])
	}
	ids, _ := g.NeighborsInRange(5, 0, platod2gl.MakeVertexID(0, 3), platod2gl.MakeVertexID(0, 6))
	if len(ids) != 4 {
		t.Fatalf("sub-range = %d ids, want 4", len(ids))
	}
	if ids, _ := g.NeighborsInRange(99, 0, 0, 10); ids != nil {
		t.Fatal("unknown source returned neighbors")
	}
}
