package serve

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"platod2gl/internal/checkpoint"
	"platod2gl/internal/core"
	"platod2gl/internal/dataset"
	"platod2gl/internal/gnn"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/sampler"
	"platod2gl/internal/storage"
	"platod2gl/internal/view"
)

// fixture is a small trained world: a homophilous graph (edges mostly
// connect same-class vertices), a briefly trained checkpoint over it, and
// the stores to mutate in refresher tests.
type fixture struct {
	store *storage.DynamicStore
	attrs *kvstore.Store
	view  *view.Local
	state *checkpoint.State
	ids   []graph.VertexID
	n     int
	cls   int
}

func newFixture(t *testing.T, n, dim, classes, epochs int, seed int64) *fixture {
	t.Helper()
	store := storage.NewDynamicStore(storage.Options{Tree: core.Options{Compress: true}, Workers: 2})
	attrs := kvstore.New()
	dataset.AssignFeatures(attrs, 0, uint64(n), dim, classes, 2.0, seed)
	rng := rand.New(rand.NewSource(seed))
	byClass := make([][]graph.VertexID, classes)
	ids := make([]graph.VertexID, n)
	for i := 0; i < n; i++ {
		id := graph.MakeVertexID(0, uint64(i))
		ids[i] = id
		l, _ := attrs.Label(id)
		byClass[l] = append(byClass[l], id)
	}
	for _, id := range ids {
		l, _ := attrs.Label(id)
		peers := byClass[l]
		for j := 0; j < 6; j++ {
			store.AddEdge(graph.Edge{Src: id, Dst: peers[rng.Intn(len(peers))], Weight: 1})
		}
	}
	gv := view.NewLocal(store, attrs, sampler.Options{Parallelism: 2, Seed: seed})
	model := gnn.NewModel(dim, 16, classes, rng)
	tr := gnn.NewTrainer(model, gv, 0, 4, 3, 0.02)
	for e := 0; e < epochs; e++ {
		if _, err := tr.TrainEpoch(e, ids, 64, rng); err != nil {
			t.Fatalf("fixture training: %v", err)
		}
	}
	return &fixture{
		store: store, attrs: attrs, view: gv,
		state: checkpoint.Capture(checkpoint.Manifest{Seed: seed}, model.Params(), nil),
		ids:   ids, n: n, cls: classes,
	}
}

func (f *fixture) engine(t *testing.T, m *Metrics) *Engine {
	t.Helper()
	e, err := New(Config{View: f.view, State: f.state, Rel: 0, F1: 4, F2: 3, IndexSeed: 5, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEmbedShapeAndNorm(t *testing.T) {
	f := newFixture(t, 300, 8, 3, 1, 2)
	e := f.engine(t, nil)
	embs, err := e.Embed(context.Background(), f.ids[:7])
	if err != nil {
		t.Fatal(err)
	}
	if len(embs) != 7 {
		t.Fatalf("got %d rows, want 7", len(embs))
	}
	for i, v := range embs {
		if len(v) != e.Dim() {
			t.Fatalf("row %d: dim %d, want %d", i, len(v), e.Dim())
		}
		var sum float64
		for _, x := range v {
			sum += float64(x) * float64(x)
		}
		if math.Abs(sum-1) > 1e-3 {
			t.Fatalf("row %d: squared norm %.4f, want 1", i, sum)
		}
	}
	if _, err := e.Embed(context.Background(), nil); err != nil {
		t.Fatalf("empty embed: %v", err)
	}
}

// TestKNNSameClassAffinity is the end-to-end semantic check: after warming
// the index, a vertex's nearest neighbors should be dominated by its own
// class — the embedding carries graph structure, and the graph is
// homophilous. Random assignment would land ~1/classes.
func TestKNNSameClassAffinity(t *testing.T) {
	f := newFixture(t, 400, 8, 4, 3, 3)
	m := &Metrics{}
	e := f.engine(t, m)
	n, err := e.Warm(context.Background(), 128)
	if err != nil {
		t.Fatal(err)
	}
	if n != e.Index().Len() || n == 0 {
		t.Fatalf("warmed %d, index holds %d", n, e.Index().Len())
	}
	same, total := 0, 0
	for i := 0; i < 40; i++ {
		id := f.ids[i*7%f.n]
		res, emb, err := e.KNN(context.Background(), id, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(emb) != e.Dim() {
			t.Fatalf("query embedding dim %d, want %d", len(emb), e.Dim())
		}
		want, _ := f.attrs.Label(id)
		for _, r := range res {
			if r.ID == id {
				t.Fatalf("KNN returned the query vertex %v", id)
			}
			got, _ := f.attrs.Label(r.ID)
			if got == want {
				same++
			}
			total++
		}
	}
	if total == 0 {
		t.Fatal("no neighbors returned")
	}
	if share := float64(same) / float64(total); share < 0.5 {
		t.Fatalf("same-class share %.3f, want >= 0.5 (random = 0.25)", share)
	}
	if m.KNNRequests.Load() != 40 {
		t.Fatalf("KNNRequests = %d, want 40", m.KNNRequests.Load())
	}
	snap := m.Snapshot()
	if snap.Errors != 0 || m.Ann.Searches.Load() == 0 {
		t.Fatalf("unexpected metrics: %+v, ann searches %d", snap, m.Ann.Searches.Load())
	}
}

// blockingView parks SampleSubgraph until released, to wedge a worker slot.
type blockingView struct {
	view.GraphView
	gate chan struct{}
}

func (b *blockingView) SampleSubgraph(seeds []graph.VertexID, path graph.MetaPath, fanouts []int) ([][]graph.VertexID, error) {
	<-b.gate
	return b.GraphView.SampleSubgraph(seeds, path, fanouts)
}

// TestAdmissionShedsOnDeadline fills the single worker slot with a wedged
// request; the next request must be rejected when its deadline fires while
// queued, and the shed counter must say so.
func TestAdmissionShedsOnDeadline(t *testing.T) {
	f := newFixture(t, 100, 8, 2, 0, 4)
	bv := &blockingView{GraphView: f.view, gate: make(chan struct{})}
	m := &Metrics{}
	e, err := New(Config{View: bv, State: f.state, Rel: 0, F1: 4, F2: 3, Workers: 1, Timeout: time.Minute, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(started)
		_, err := e.Embed(context.Background(), f.ids[:1])
		done <- err
	}()
	<-started
	// Wait until the wedged request actually holds the slot.
	deadline := time.Now().Add(2 * time.Second)
	for len(e.sem) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never acquired the worker slot")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := e.Embed(ctx, f.ids[1:2]); err == nil {
		t.Fatal("queued request beyond the pool was not shed")
	}
	if m.Shed.Load() != 1 {
		t.Fatalf("Shed = %d, want 1", m.Shed.Load())
	}
	close(bv.gate)
	if err := <-done; err != nil {
		t.Fatalf("wedged request failed after release: %v", err)
	}
}

func TestModelFromStateRejectsGarbage(t *testing.T) {
	if _, err := modelFromState(&checkpoint.State{}); err == nil {
		t.Fatal("empty state accepted")
	}
	bad := &checkpoint.State{Params: make([]checkpoint.Tensor, 6)}
	for i := range bad.Params {
		bad.Params[i] = checkpoint.Tensor{Rows: 2, Cols: 2, Data: make([]float32, 4)}
	}
	bad.Params[1] = checkpoint.Tensor{Rows: 3, Cols: 2, Data: make([]float32, 6)}
	if _, err := modelFromState(bad); err == nil {
		t.Fatal("inconsistent shapes accepted")
	}
}
