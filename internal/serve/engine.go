// Package serve is the online inference tier: forward-pass-only GNN
// embedding over a live GraphView, plus k-nearest-neighbor retrieval over an
// in-process HNSW index of those embeddings.
//
// Training (cmd/platod2gl-train) produces checkpoints; serving loads the
// latest one, freezes the weights, and answers two questions about the
// *current* graph: "what is this vertex's embedding right now?" (Embed —
// neighborhoods are re-sampled per request, so topology updates are
// reflected immediately) and "which vertices look like this one?" (KNN over
// the index). A background Refresher (refresh.go) keeps the index from
// going stale as the graph mutates underneath it.
//
// The engine is safe for concurrent use: weights are read-only after New,
// the per-request forward pass is gnn's block forward (Model.Layer1, which
// reads only the weights), and admission is a bounded worker pool with a
// per-request deadline — the same budget-and-shed discipline the cluster's
// RPC tier applies, so an overloaded serving process degrades by
// rejecting, not by collapsing.
package serve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"platod2gl/internal/ann"
	"platod2gl/internal/checkpoint"
	"platod2gl/internal/gnn"
	"platod2gl/internal/graph"
	"platod2gl/internal/view"
)

// modelFromState builds a 2-layer GraphSAGE model shaped like the
// checkpoint's tensors and loads them, so serving needs no -hidden/-classes
// flags that could drift from what was actually trained. The tensor order
// is Model.Params(): L1.{Wself,Wneigh,Bias}, L2.{Wself,Wneigh,Bias};
// State.Apply checks every shape.
func modelFromState(st *checkpoint.State) (*gnn.Model, error) {
	if len(st.Params) != 6 {
		return nil, fmt.Errorf("serve: checkpoint has %d tensors, a 2-layer SAGE model has 6", len(st.Params))
	}
	m := gnn.NewModel(st.Params[0].Rows, st.Params[0].Cols, st.Params[5].Cols, rand.New(rand.NewSource(0)))
	if err := st.Apply(m.Params(), nil); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return m, nil
}

// Config wires an Engine.
type Config struct {
	// View answers sampling and feature pulls for interactive requests.
	View view.GraphView
	// State is the trained checkpoint to freeze and serve.
	State *checkpoint.State
	// Rel is the relation expanded over both hops; F1/F2 the per-hop
	// fanouts. These should match training — the embedding geometry depends
	// on them.
	Rel    graph.EdgeType
	F1, F2 int
	// Workers bounds concurrent forward passes (default 4). Requests beyond
	// the bound queue until a slot frees or their deadline fires.
	Workers int
	// Timeout is the per-request budget applied when the caller's context
	// has no earlier deadline (default 2s, 0 keeps the default; negative
	// disables).
	Timeout time.Duration
	// IndexSeed seeds the HNSW level generator (reproducible tests).
	IndexSeed int64
	// Metrics receives request counters and latencies. nil: a private
	// instance.
	Metrics *Metrics
}

// Engine computes embeddings and serves k-NN over them.
type Engine struct {
	view    view.GraphView
	model   *gnn.Model
	rel     graph.EdgeType
	f1, f2  int
	sem     chan struct{}
	timeout time.Duration
	index   *ann.Index
	metrics *Metrics
}

// New freezes the checkpoint and builds an empty index sized to the
// embedding dimension. Call Warm (or the Refresher) to populate it.
func New(cfg Config) (*Engine, error) {
	if cfg.View == nil {
		return nil, fmt.Errorf("serve: Config.View is required")
	}
	if cfg.State == nil {
		return nil, fmt.Errorf("serve: Config.State is required")
	}
	model, err := modelFromState(cfg.State)
	if err != nil {
		return nil, err
	}
	if cfg.F1 <= 0 || cfg.F2 <= 0 {
		return nil, fmt.Errorf("serve: fanouts must be positive (F1 %d, F2 %d)", cfg.F1, cfg.F2)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 4
	}
	timeout := cfg.Timeout
	if timeout == 0 {
		timeout = 2 * time.Second
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &Metrics{}
	}
	ix, err := ann.New(ann.Config{Dim: model.Hidden, Seed: cfg.IndexSeed, Metrics: &cfg.Metrics.Ann})
	if err != nil {
		return nil, err
	}
	return &Engine{
		view: cfg.View, model: model, rel: cfg.Rel, f1: cfg.F1, f2: cfg.F2,
		sem: make(chan struct{}, workers), timeout: timeout,
		index: ix, metrics: cfg.Metrics,
	}, nil
}

// Dim is the embedding dimensionality (the model's hidden width).
func (e *Engine) Dim() int { return e.model.Hidden }

// Classes is the label-space width the checkpoint was trained with.
func (e *Engine) Classes() int { return e.model.Out }

// Index exposes the underlying ANN index (for gauges and tests).
func (e *Engine) Index() *ann.Index { return e.index }

// acquire admits the request into the bounded worker pool, returning the
// release func and a possibly deadline-narrowed context.
func (e *Engine) acquire(ctx context.Context) (context.Context, context.CancelFunc, error) {
	cancel := context.CancelFunc(func() {})
	if e.timeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			ctx, cancel = context.WithTimeout(ctx, e.timeout)
		}
	}
	select {
	case e.sem <- struct{}{}:
		return ctx, cancel, nil
	case <-ctx.Done():
		cancel()
		e.metrics.Shed.Inc()
		return nil, nil, fmt.Errorf("serve: request shed waiting for a worker: %w", ctx.Err())
	}
}

func (e *Engine) release() { <-e.sem }

// Embed computes current embeddings for ids: one row per id, L2-normalized,
// Dim() wide. Neighborhoods are sampled from the live view at call time.
func (e *Engine) Embed(ctx context.Context, ids []graph.VertexID) ([][]float32, error) {
	start := time.Now()
	ctx, cancel, err := e.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()
	defer e.release()
	out, err := e.embedLocked(ctx, e.view, ids)
	e.metrics.observeEmbed(start, err)
	return out, err
}

// embedLocked runs the forward pass; the caller holds a worker slot. v is
// passed explicitly so the refresher can route its sampling through a
// background-priority view without a second pool.
func (e *Engine) embedLocked(ctx context.Context, v view.GraphView, ids []graph.VertexID) ([][]float32, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b, err := gnn.SampleBlock(v, ids, e.rel, e.f1, e.f2, e.model.InDim)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The embedding is layer 1's hidden representation (layer 2 projects to
	// logits), mixing each seed's own hidden state with the mean of its
	// hop-1 draws' hidden states so two hops of structure land in the
	// vector. Layer 1 computes each frontier vertex once; a seed's row is
	// also its index among the distinct seeds, whose hop-1 draws the pool
	// groups.
	h1 := e.model.Layer1(b)
	rows := b.Rows[:len(ids)]
	pooled := gnn.MeanPoolRows(h1, b.Rows[len(ids):len(ids)+len(b.Hop1)], e.f1)
	d := h1.Cols
	flat := make([]float32, len(ids)*d)
	out := make([][]float32, len(ids))
	for i, r := range rows {
		row := flat[i*d : (i+1)*d : (i+1)*d]
		s, p := h1.Row(int(r)), pooled.Row(int(r))
		for j := range row {
			row[j] = 0.5 * (s[j] + p[j])
		}
		normalize(row)
		out[i] = row
	}
	return out, nil
}

// normalize scales v to unit L2 norm in place (zero vectors stay zero).
func normalize(v []float32) {
	var sum float64
	for _, x := range v {
		sum += float64(x) * float64(x)
	}
	if sum == 0 {
		return
	}
	inv := float32(1 / math.Sqrt(sum))
	for i := range v {
		v[i] *= inv
	}
}

// Result is one k-NN hit.
type Result struct {
	ID   graph.VertexID
	Dist float32
}

// KNN returns the k nearest indexed vertices to id's *current* embedding —
// computed fresh, so a vertex whose neighborhood just changed is queried by
// where it is now, not where the index last saw it. The vertex itself is
// excluded from the hits. The query embedding is returned alongside so HTTP
// callers get both for one forward pass.
func (e *Engine) KNN(ctx context.Context, id graph.VertexID, k int) ([]Result, []float32, error) {
	start := time.Now()
	ctx, cancel, err := e.acquire(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer cancel()
	defer e.release()
	embs, err := e.embedLocked(ctx, e.view, []graph.VertexID{id})
	if err != nil {
		e.metrics.observeKNN(start, err)
		return nil, nil, err
	}
	res, err := e.searchIndex(embs[0], k, id, true)
	e.metrics.observeKNN(start, err)
	return res, embs[0], err
}

// KNNVector searches the index around an externally supplied embedding.
func (e *Engine) KNNVector(ctx context.Context, vec []float32, k int) ([]Result, error) {
	start := time.Now()
	ctx, cancel, err := e.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()
	defer e.release()
	if err := ctx.Err(); err != nil {
		e.metrics.observeKNN(start, err)
		return nil, err
	}
	res, err := e.searchIndex(vec, k, 0, false)
	e.metrics.observeKNN(start, err)
	return res, err
}

// searchIndex widens the search by one to absorb the excluded self hit.
func (e *Engine) searchIndex(vec []float32, k int, exclude graph.VertexID, hasExclude bool) ([]Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("serve: k must be positive, got %d", k)
	}
	hits, err := e.index.Search(vec, min(k, math.MaxInt-1)+1)
	if err != nil {
		return nil, err
	}
	out := make([]Result, 0, len(hits))
	for _, h := range hits {
		if hasExclude && graph.VertexID(h.ID) == exclude {
			continue
		}
		out = append(out, Result{ID: graph.VertexID(h.ID), Dist: h.Dist})
		if len(out) == k {
			break
		}
	}
	return out, nil
}

// IndexVertices embeds ids through v and upserts them into the index in one
// worker slot. It is the refresher's unit of work and Warm's inner loop.
func (e *Engine) IndexVertices(ctx context.Context, v view.GraphView, ids []graph.VertexID) error {
	ctx, cancel, err := e.acquire(ctx)
	if err != nil {
		return err
	}
	defer cancel()
	defer e.release()
	embs, err := e.embedLocked(ctx, v, ids)
	if err != nil {
		return err
	}
	for i, id := range ids {
		if err := e.index.Insert(uint64(id), embs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Warm bulk-indexes every source vertex of the serving relation in batches,
// so the index answers from the first query. Returns the number indexed.
func (e *Engine) Warm(ctx context.Context, batch int) (int, error) {
	if batch <= 0 {
		batch = 256
	}
	srcs, err := e.view.Sources(e.rel)
	if err != nil {
		return 0, fmt.Errorf("serve: list sources: %w", err)
	}
	done := 0
	for lo := 0; lo < len(srcs); lo += batch {
		hi := lo + batch
		if hi > len(srcs) {
			hi = len(srcs)
		}
		if err := e.IndexVertices(ctx, e.view, srcs[lo:hi]); err != nil {
			return done, err
		}
		done = hi
	}
	return done, nil
}
