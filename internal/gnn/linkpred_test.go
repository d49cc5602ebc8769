package gnn

import (
	"math/rand"
	"testing"

	"platod2gl/internal/core"
	"platod2gl/internal/dataset"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/storage"
	"platod2gl/internal/view"
)

// mustLinkStep trains one link-prediction step, failing the test on error.
func mustLinkStep(t testing.TB, tr *LinkTrainer, batch []graph.Edge) float64 {
	t.Helper()
	loss, err := tr.TrainStep(batch)
	if err != nil {
		t.Fatalf("TrainStep: %v", err)
	}
	return loss
}

// mustAUC evaluates AUC, failing the test on error.
func mustAUC(t testing.TB, tr *LinkTrainer, pos, neg []graph.Edge) float64 {
	t.Helper()
	auc, err := tr.AUC(pos, neg)
	if err != nil {
		t.Fatalf("AUC: %v", err)
	}
	return auc
}

// buildBipartite creates a user-item graph with two taste communities:
// users of community c interact with items of community c.
func buildBipartite(t testing.TB) (*storage.DynamicStore, *kvstore.Store, []graph.Edge, []graph.VertexID, [2][]graph.VertexID) {
	t.Helper()
	const users, items, dim = 200, 100, 8
	store := storage.NewDynamicStore(storage.Options{Tree: core.Options{Capacity: 32}})
	attrs := kvstore.New()
	dataset.AssignFeatures(attrs, 0, users, dim, 2, 0.3, 1) // user features by community
	dataset.AssignFeatures(attrs, 1, items, dim, 2, 0.3, 2) // item features by community
	rng := rand.New(rand.NewSource(3))
	itemsOf := [2][]graph.VertexID{}
	pool := make([]graph.VertexID, 0, items)
	for i := uint64(0); i < items; i++ {
		id := graph.MakeVertexID(1, i)
		l, _ := attrs.Label(id)
		itemsOf[l] = append(itemsOf[l], id)
		pool = append(pool, id)
	}
	var edges []graph.Edge
	for u := uint64(0); u < users; u++ {
		uid := graph.MakeVertexID(0, u)
		l, _ := attrs.Label(uid)
		own := itemsOf[l]
		for j := 0; j < 6; j++ {
			e := graph.Edge{Src: uid, Dst: own[rng.Intn(len(own))], Weight: 1}
			store.AddEdge(e)
			// Reverse edges give items neighborhoods too.
			store.AddEdge(graph.Edge{Src: e.Dst, Dst: uid, Weight: 1})
			edges = append(edges, e)
		}
	}
	return store, attrs, edges, pool, itemsOf
}

func TestLinkPredictionLearns(t *testing.T) {
	store, attrs, edges, pool, itemsOf := buildBipartite(t)
	rng := rand.New(rand.NewSource(4))
	model := NewLinkModel(8, 16, rng)
	tr := NewLinkTrainer(model, testView(store, attrs, 2, 1), 0, 5, 0.05, pool, 7)

	// Held-out positives; negatives corrupt with the *other* community's
	// items, which are guaranteed non-edges.
	testPos := edges[:50]
	var testNeg []graph.Edge
	for _, e := range testPos {
		l, _ := attrs.Label(e.Src)
		other := itemsOf[1-l]
		testNeg = append(testNeg, graph.Edge{Src: e.Src, Dst: other[rng.Intn(len(other))]})
	}
	before := mustAUC(t, tr, testPos, testNeg)
	var lastLoss float64
	for step := 0; step < 60; step++ {
		batch := make([]graph.Edge, 64)
		for i := range batch {
			batch[i] = edges[rng.Intn(len(edges))]
		}
		lastLoss = mustLinkStep(t, tr, batch)
	}
	after := mustAUC(t, tr, testPos, testNeg)
	if after < 0.8 {
		t.Fatalf("AUC after training = %.3f (before %.3f), want >= 0.8", after, before)
	}
	if after <= before {
		t.Fatalf("AUC did not improve: %.3f -> %.3f", before, after)
	}
	if lastLoss <= 0 || lastLoss > 0.7 {
		t.Fatalf("final loss = %.4f, want in (0, 0.7)", lastLoss)
	}
}

func TestLinkTrainerEmptyBatch(t *testing.T) {
	store, attrs, _, pool, _ := buildBipartite(t)
	rng := rand.New(rand.NewSource(5))
	tr := NewLinkTrainer(NewLinkModel(8, 8, rng), testView(store, attrs, 2, 1), 0, 4, 0.01, pool, 9)
	if loss := mustLinkStep(t, tr, nil); loss != 0 {
		t.Fatalf("empty batch loss = %v", loss)
	}
}

func TestLinkScoreShape(t *testing.T) {
	store, attrs, edges, pool, _ := buildBipartite(t)
	rng := rand.New(rand.NewSource(6))
	tr := NewLinkTrainer(NewLinkModel(8, 8, rng), testView(store, attrs, 2, 1), 0, 4, 0.01, pool, 9)
	scores, err := tr.Score(edges[:7])
	if err != nil {
		t.Fatalf("Score: %v", err)
	}
	if len(scores) != 7 {
		t.Fatalf("Score returned %d values", len(scores))
	}
}

func TestAUCBounds(t *testing.T) {
	store, attrs, edges, pool, _ := buildBipartite(t)
	rng := rand.New(rand.NewSource(8))
	tr := NewLinkTrainer(NewLinkModel(8, 8, rng), testView(store, attrs, 2, 1), 0, 4, 0.01, pool, 9)
	if auc := mustAUC(t, tr, nil, nil); auc != 0 {
		t.Fatalf("empty AUC = %v", auc)
	}
	auc := mustAUC(t, tr, edges[:10], edges[10:20])
	if auc < 0 || auc > 1 {
		t.Fatalf("AUC out of range: %v", auc)
	}
}

func TestRecommendRanksOwnCommunity(t *testing.T) {
	store, attrs, edges, pool, itemsOf := buildBipartite(t)
	rng := rand.New(rand.NewSource(10))
	tr := NewLinkTrainer(NewLinkModel(8, 16, rng), testView(store, attrs, 2, 1), 0, 5, 0.05, pool, 11)
	for step := 0; step < 60; step++ {
		batch := make([]graph.Edge, 64)
		for i := range batch {
			batch[i] = edges[rng.Intn(len(edges))]
		}
		mustLinkStep(t, tr, batch)
	}
	// Top-10 recommendations for a community-0 user should be dominated by
	// community-0 items.
	var u graph.VertexID
	for i := uint64(0); ; i++ {
		u = graph.MakeVertexID(0, i)
		if l, _ := attrs.Label(u); l == 0 {
			break
		}
	}
	recs, err := tr.Recommend(u, pool, 10)
	if err != nil {
		t.Fatalf("Recommend: %v", err)
	}
	if len(recs) != 10 {
		t.Fatalf("got %d recommendations", len(recs))
	}
	own := 0
	for _, r := range recs {
		if l, _ := attrs.Label(r.ID); l == 0 {
			own++
		}
	}
	if own < 8 {
		t.Fatalf("only %d/10 recommendations in the user's community", own)
	}
	_ = itemsOf
	// Scores are sorted descending.
	for i := 1; i < len(recs); i++ {
		if recs[i].Score > recs[i-1].Score {
			t.Fatal("recommendations not sorted")
		}
	}
	if empty, err := tr.Recommend(u, nil, 5); err != nil || empty != nil {
		t.Fatalf("empty candidates: recs=%v err=%v", empty, err)
	}
}

func TestLinkTrainerEmptyNegativePool(t *testing.T) {
	store, attrs, edges, _, _ := buildBipartite(t)
	tr := NewLinkTrainer(NewLinkModel(8, 8, rand.New(rand.NewSource(5))), testView(store, attrs, 2, 1), 0, 4, 0.01, nil, 9)
	if _, err := tr.TrainStep(edges[:4]); err == nil {
		t.Fatal("TrainStep with an empty negative pool succeeded")
	}
}

// neighborView records the sample of every SampleNeighbors call made
// through it.
type neighborView struct {
	view.GraphView
	samples [][]graph.VertexID
}

func (v *neighborView) SampleNeighbors(seeds []graph.VertexID, rel graph.EdgeType, fanout int) ([]graph.VertexID, error) {
	out, err := v.GraphView.SampleNeighbors(seeds, rel, fanout)
	v.samples = append(v.samples, out)
	return out, err
}

// TestLinkEmbedMatchesDense: on nodes that repeat, and whose samples repeat
// them, the encoder's block forward gives the dense layout's embeddings bit
// for bit: a feature row per position and Wself over all of them.
func TestLinkEmbedMatchesDense(t *testing.T) {
	store, attrs, edges, pool, _ := buildBipartite(t)
	inner := testView(store, attrs, 2, 1)
	nv := &neighborView{GraphView: inner}
	cv := &countingView{GraphView: nv}
	tr := NewLinkTrainer(NewLinkModel(8, 16, rand.New(rand.NewSource(12))), cv, 0, 5, 0.05, pool, 13)
	for step := 0; step < 5; step++ {
		mustLinkStep(t, tr, edges[step*32:(step+1)*32])
	}
	var nodes []graph.VertexID
	for _, e := range edges[:40] {
		nodes = append(nodes, e.Src, e.Dst, e.Src)
	}
	nv.samples, cv.features = nil, nil
	got, err := tr.Embed(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if len(cv.features) != 1 || len(cv.features[0]) >= len(nodes)+len(nv.samples[0]) {
		t.Fatalf("%d Features calls, the first for %d ids of %d positions", len(cv.features), len(cv.features[0]), len(nodes)+len(nv.samples[0]))
	}
	x, err := inner.Features(append(append([]graph.VertexID(nil), nodes...), nv.samples[0]...), 8)
	if err != nil {
		t.Fatal(err)
	}
	n := len(nodes) * 8
	xSelf := NewMatrixFrom(len(nodes), 8, x[:n])
	xNeigh := NewMatrixFrom(len(nv.samples[0]), 8, x[n:])
	sameBits(t, "embedding", got, tr.Model.Enc.Forward(xSelf, MeanPool(xNeigh, 5)))
}
