package serve

import (
	"context"
	"math"
	"math/rand"
	"sync"
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

func newFixture(t testing.TB, n, dim, classes, epochs int, seed int64) *fixture {
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

func (f *fixture) engine(t testing.TB, m *Metrics) *Engine {
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

// recordingView records the sample of every SampleSubgraph call and the id
// list of every Features call made through it.
type recordingView struct {
	view.GraphView
	samples  [][][]graph.VertexID
	features [][]graph.VertexID
}

func (v *recordingView) SampleSubgraph(seeds []graph.VertexID, path graph.MetaPath, fanouts []int) ([][]graph.VertexID, error) {
	layers, err := v.GraphView.SampleSubgraph(seeds, path, fanouts)
	v.samples = append(v.samples, layers)
	return layers, err
}

func (v *recordingView) Features(nodes []graph.VertexID, dim int) ([]float32, error) {
	v.features = append(v.features, append([]graph.VertexID(nil), nodes...))
	return v.GraphView.Features(nodes, dim)
}

// denseEmbed is the embedding formula written with the free matrix
// functions, kept as the oracle: the checkpoint's layer-1 tensors applied
// once to each vertex of the frontier, distinct(ids ∪ hop 1) found through
// a map, with a feature row fetched per position of its hop-2 draws; then
// the mix of each seed's hidden state with the mean of its hop-1 draws'
// hidden states, looked up by vertex.
func denseEmbed(t *testing.T, st *checkpoint.State, v view.GraphView, ids []graph.VertexID, layers [][]graph.VertexID, f1, f2 int) [][]float32 {
	t.Helper()
	tensor := func(i int) *gnn.Matrix {
		p := st.Params[i]
		return gnn.NewMatrixFrom(p.Rows, p.Cols, p.Data)
	}
	wSelf, wNeigh, bias := tensor(0), tensor(1), tensor(2)
	hop1, hop2 := layers[0], layers[1]
	index := map[graph.VertexID]int{}
	var frontier []graph.VertexID
	for _, id := range append(append([]graph.VertexID(nil), ids...), hop1...) {
		if _, ok := index[id]; !ok {
			index[id] = len(frontier)
			frontier = append(frontier, id)
		}
	}
	dim := wSelf.Rows
	x, err := v.Features(append(append([]graph.VertexID(nil), frontier...), hop2...), dim)
	if err != nil {
		t.Fatal(err)
	}
	nF := len(frontier) * dim
	xSelf := gnn.NewMatrixFrom(len(frontier), dim, x[:nF])
	xHop2 := gnn.NewMatrixFrom(len(hop2), dim, x[nF:])
	h1 := gnn.MatMul(gnn.MeanPool(xHop2, f2), wNeigh)
	gnn.AddInPlace(h1, gnn.MatMul(xSelf, wSelf))
	gnn.AddBiasRow(h1, bias)
	gnn.ReluInPlace(h1)
	h1Hop1 := gnn.NewMatrix(len(hop1), h1.Cols)
	for p, id := range hop1 {
		copy(h1Hop1.Row(p), h1.Row(index[id]))
	}
	h1Pooled := gnn.MeanPool(h1Hop1, f1)
	out := make([][]float32, len(ids))
	for i, id := range ids {
		row := make([]float32, h1.Cols)
		s, p := h1.Row(index[id]), h1Pooled.Row(index[id])
		for j := range row {
			row[j] = 0.5 * (s[j] + p[j])
		}
		normalize(row)
		out[i] = row
	}
	return out
}

// sameBits fails unless got and want hold the same float32 bits.
func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for j := range want {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			t.Fatalf("%s[%d] = %v, dense oracle %v", what, j, got[j], want[j])
		}
	}
}

// TestEmbedMatchesDenseOracle: Embed and IndexVertices give the dense
// formula's embeddings bit for bit, on a trained checkpoint and on every
// batch Warm would index. IndexVertices asks the view for features once per
// call, each id at most once.
func TestEmbedMatchesDenseOracle(t *testing.T) {
	f := newFixture(t, 400, 8, 4, 2, 3)
	rv := &recordingView{GraphView: f.view}
	e, err := New(Config{View: rv, State: f.state, Rel: 0, F1: 4, F2: 3, IndexSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ids := f.ids[:64]
	embs, err := e.Embed(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	want := denseEmbed(t, f.state, f.view, ids, rv.samples[0], 4, 3)
	for i := range ids {
		sameBits(t, "Embed", embs[i], want[i])
	}

	srcs, err := f.view.Sources(0)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(srcs); lo += 128 {
		batch := srcs[lo:min(lo+128, len(srcs))]
		rv.samples, rv.features = nil, nil
		if err := e.IndexVertices(ctx, rv, batch); err != nil {
			t.Fatal(err)
		}
		if len(rv.features) != 1 {
			t.Fatalf("IndexVertices made %d Features calls, want 1", len(rv.features))
		}
		seen := map[graph.VertexID]bool{}
		for _, id := range rv.features[0] {
			if seen[id] {
				t.Fatalf("Features asked for %v twice", id)
			}
			seen[id] = true
		}
		positions := len(batch) + len(rv.samples[0][0]) + len(rv.samples[0][1])
		if len(seen) >= positions {
			t.Fatalf("%d feature rows for %d positions: no vertex repeats", len(seen), positions)
		}
		want := denseEmbed(t, f.state, f.view, batch, rv.samples[0], 4, 3)
		for i, id := range batch {
			got, ok := e.Index().Vector(uint64(id))
			if !ok {
				t.Fatalf("%v not indexed", id)
			}
			sameBits(t, "IndexVertices", got, want[i])
		}
	}
}

// TestConcurrentEmbedSharesModel: the engine's workers share one model,
// whose forward reads only the weights, so concurrent Embed and
// IndexVertices calls race on nothing (run it under -race).
func TestConcurrentEmbedSharesModel(t *testing.T) {
	f := newFixture(t, 200, 8, 2, 0, 7)
	e := f.engine(t, nil)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				ids := f.ids[(w*10+i)*4%190:][:8]
				if _, err := e.Embed(ctx, ids); err != nil {
					errs <- err
					return
				}
				if err := e.IndexVertices(ctx, f.view, ids); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestKNNHugeK: a k past the index size, up to math.MaxInt, returns at most
// every other indexed vertex instead of sizing its results by k.
func TestKNNHugeK(t *testing.T) {
	f := newFixture(t, 100, 8, 2, 0, 6)
	e := f.engine(t, nil)
	ctx := context.Background()
	if _, err := e.Warm(ctx, 64); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1 << 40, math.MaxInt} {
		res, _, err := e.KNN(ctx, f.ids[0], k)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 || len(res) > e.Index().Len()-1 {
			t.Fatalf("k=%d: %d hits from an index of %d", k, len(res), e.Index().Len())
		}
		vres, err := e.KNNVector(ctx, make([]float32, e.Dim()), k)
		if err != nil {
			t.Fatal(err)
		}
		if len(vres) == 0 || len(vres) > e.Index().Len() {
			t.Fatalf("KNNVector k=%d: %d hits from an index of %d", k, len(vres), e.Index().Len())
		}
	}
}

// embedInput is BenchmarkEngineEmbed's input: an engine at serve-knn's
// fan-outs (8×5) and widths (64 features, 32 hidden) over a 5 000-vertex
// graph, reading it through wrap(view.Local), and eight batches of 256
// seeds.
func embedInput(tb testing.TB, wrap func(view.GraphView) view.GraphView) (*Engine, [][]graph.VertexID) {
	f := newFixture(tb, 5000, 64, 8, 0, 9)
	e, err := New(Config{View: wrap(f.view), State: f.state, Rel: 0, F1: 8, F2: 5, Timeout: -1})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	batches := make([][]graph.VertexID, 8)
	for i := range batches {
		for _, k := range rng.Perm(f.n)[:256] {
			batches[i] = append(batches[i], f.ids[k])
		}
	}
	return e, batches
}

// replayView answers every SampleSubgraph and Features call after the
// first with the first call's reply, so repeated Embeds of one batch
// allocate only in the engine and gnn, not in the sampler or the store,
// whose counts vary with what is sampled.
type replayView struct {
	view.GraphView
	layers [][]graph.VertexID
	x      []float32
}

func (v *replayView) SampleSubgraph(seeds []graph.VertexID, path graph.MetaPath, fanouts []int) ([][]graph.VertexID, error) {
	if v.layers == nil {
		layers, err := v.GraphView.SampleSubgraph(seeds, path, fanouts)
		if err != nil {
			return nil, err
		}
		v.layers = layers
	}
	return v.layers, nil
}

func (v *replayView) Features(nodes []graph.VertexID, dim int) ([]float32, error) {
	if v.x == nil {
		x, err := v.GraphView.Features(nodes, dim)
		if err != nil {
			return nil, err
		}
		v.x = x
	}
	return v.x, nil
}

// TestEmbedAllocs pins the engine's and gnn's allocations in an Embed of
// one of BenchmarkEngineEmbed's batches, with the view's replies replayed.
// The count is exact, so the ceiling is today's count, 18, and one more
// allocation per call fails. A change that lowers the count lowers the
// ceiling with it.
func TestEmbedAllocs(t *testing.T) {
	e, batches := embedInput(t, func(v view.GraphView) view.GraphView { return &replayView{GraphView: v} })
	ctx := context.Background()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := e.Embed(ctx, batches[0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 18 {
		t.Fatalf("Embed makes %v allocations, ceiling 18", allocs)
	}
}

// BenchmarkEngineEmbed times one Embed on embedInput's batches. rows/call
// is the feature rows fetched per call.
func BenchmarkEngineEmbed(b *testing.B) {
	var rv *recordingView
	e, batches := embedInput(b, func(v view.GraphView) view.GraphView {
		rv = &recordingView{GraphView: v}
		return rv
	})
	ctx := context.Background()
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rv.samples, rv.features = nil, nil
		if _, err := e.Embed(ctx, batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
		rows += len(rv.features[0])
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/call")
}
