package gnn

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"platod2gl/internal/graph"
	"platod2gl/internal/view"
)

// Link prediction is the actual training objective of the paper's
// motivating application (live-streaming recommendation): learn embeddings
// such that observed user→item edges score higher than random pairs. This
// trainer implements the standard setup — a shared SAGE encoder embeds both
// endpoints from their sampled neighborhoods, scores pairs by dot product,
// and optimizes binomial cross-entropy against uniform negative samples.

// LinkModel is a one-layer GraphSAGE encoder for link prediction: both
// endpoints are embedded with the same parameters.
type LinkModel struct {
	Enc *SAGELayer
	Dim int
	Out int
}

// NewLinkModel builds a Glorot-initialized encoder (inDim features → outDim
// embedding).
func NewLinkModel(inDim, outDim int, rng *rand.Rand) *LinkModel {
	// No output activation: dot-product scoring needs signed embeddings
	// (a ReLU head can only produce non-negative scores and collapses).
	return &LinkModel{Enc: NewSAGELayer(inDim, outDim, false, rng), Dim: inDim, Out: outDim}
}

// LinkTrainer drives link-prediction training against a GraphView.
type LinkTrainer struct {
	Model  *LinkModel
	View   view.GraphView
	Opt    *Adam
	Rel    graph.EdgeType
	Fanout int
	// NegativePool is the candidate set for negative destinations.
	NegativePool []graph.VertexID
	rng          *rand.Rand
}

// NewLinkTrainer wires a link-prediction trainer. negativePool supplies the
// corruption candidates (typically all items); seed drives negative
// sampling.
func NewLinkTrainer(model *LinkModel, v view.GraphView,
	rel graph.EdgeType, fanout int, lr float64, negativePool []graph.VertexID, seed int64) *LinkTrainer {
	return &LinkTrainer{
		Model:        model,
		View:         v,
		Opt:          NewAdam(lr),
		Rel:          rel,
		Fanout:       fanout,
		NegativePool: negativePool,
		rng:          rand.New(rand.NewSource(seed)),
	}
}

// embed encodes nodes from their features and 1-hop sampled neighborhoods.
// Like SampleBlock, it fetches the features of each distinct vertex of the
// nodes and their samples once, in one view call, projects each distinct
// node through Wself once, and pools the neighbors straight out of the
// fetched rows. Forward caches live in the encoder, so callers must embed
// all nodes of a step in ONE call for backprop to see them.
func (t *LinkTrainer) embed(nodes []graph.VertexID) (*Matrix, error) {
	neigh, err := t.View.SampleNeighbors(nodes, t.Rel, t.Fanout)
	if err != nil {
		return nil, fmt.Errorf("gnn: sample neighbors: %w", err)
	}
	distinct, rows, nSelf := dedupe([][]graph.VertexID{nodes}, neigh)
	x, err := features(t.View, distinct, t.Model.Dim)
	if err != nil {
		return nil, err
	}
	xNeigh := MeanPoolRows(x, rows[len(nodes):], t.Fanout)
	return t.Model.Enc.ForwardRows(rowView(x, 0, nSelf), rows[:len(nodes)], xNeigh), nil
}

// TrainStep trains on a batch of positive edges plus one uniform negative
// per positive, returning the mean logistic loss. It fails on a non-empty
// batch when NegativePool is empty.
func (t *LinkTrainer) TrainStep(positives []graph.Edge) (float64, error) {
	n := len(positives)
	if n == 0 {
		return 0, nil
	}
	if len(t.NegativePool) == 0 {
		return 0, fmt.Errorf("gnn: link trainer has no negative pool to sample from")
	}
	// Layout: rows [0,n) = sources, [n,2n) = positive dsts, [2n,3n) =
	// negative dsts — one encoder pass over the concatenation.
	nodes := make([]graph.VertexID, 0, 3*n)
	for _, e := range positives {
		nodes = append(nodes, e.Src)
	}
	for _, e := range positives {
		nodes = append(nodes, e.Dst)
	}
	for range positives {
		nodes = append(nodes, t.NegativePool[t.rng.Intn(len(t.NegativePool))])
	}
	t.Model.Enc.ZeroGrads()
	h, err := t.embed(nodes)
	if err != nil {
		return 0, err
	}
	d := t.Model.Out

	// Pair scores s = <h_src, h_dst>; logistic loss with labels 1 (pos)
	// and 0 (neg). dL/dh accumulates into one gradient matrix.
	dh := NewMatrix(h.Rows, d)
	loss := 0.0
	inv := 1 / float64(2*n)
	for i := 0; i < 2*n; i++ {
		srcRow := i % n
		dstRow := n + i // rows n..3n-1
		label := 1.0
		if i >= n {
			label = 0
		}
		hs := h.Row(srcRow)
		hd := h.Row(dstRow)
		var s float64
		for k := 0; k < d; k++ {
			s += float64(hs[k] * hd[k])
		}
		p := 1 / (1 + math.Exp(-s))
		if label == 1 {
			loss += -math.Log(p + 1e-12)
		} else {
			loss += -math.Log(1 - p + 1e-12)
		}
		g := float32((p - label) * inv)
		ds := dh.Row(srcRow)
		dd := dh.Row(dstRow)
		for k := 0; k < d; k++ {
			ds[k] += g * hd[k]
			dd[k] += g * hs[k]
		}
	}
	// Features are constants: the encoder needs its weight gradients only.
	t.Model.Enc.BackwardWeights(dh)
	t.Opt.Step(t.Model.Enc.Params(), t.Model.Enc.Grads())
	return loss * inv, nil // mean over the 2n scored pairs
}

// Score returns the link score (pre-sigmoid) for each (src, dst) pair.
func (t *LinkTrainer) Score(pairs []graph.Edge) ([]float64, error) {
	n := len(pairs)
	nodes := make([]graph.VertexID, 0, 2*n)
	for _, e := range pairs {
		nodes = append(nodes, e.Src)
	}
	for _, e := range pairs {
		nodes = append(nodes, e.Dst)
	}
	h, err := t.embed(nodes)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		hs := h.Row(i)
		hd := h.Row(n + i)
		var s float64
		for k := 0; k < t.Model.Out; k++ {
			s += float64(hs[k] * hd[k])
		}
		out[i] = s
	}
	return out, nil
}

// AUC estimates ranking quality: the probability a positive edge outscores
// a negative one, over all pos×neg pairs.
func (t *LinkTrainer) AUC(positives, negatives []graph.Edge) (float64, error) {
	ps, err := t.Score(positives)
	if err != nil {
		return 0, err
	}
	ns, err := t.Score(negatives)
	if err != nil {
		return 0, err
	}
	if len(ps) == 0 || len(ns) == 0 {
		return 0, nil
	}
	var wins float64
	for _, p := range ps {
		for _, q := range ns {
			switch {
			case p > q:
				wins++
			case p == q:
				wins += 0.5
			}
		}
	}
	return wins / float64(len(ps)*len(ns)), nil
}

// Embed returns the current embeddings for nodes (inference; caches are
// overwritten, do not interleave with TrainStep backprop).
func (t *LinkTrainer) Embed(nodes []graph.VertexID) (*Matrix, error) {
	h, err := t.embed(nodes)
	if err != nil {
		return nil, err
	}
	return h.Clone(), nil
}

// Recommendation holds one scored candidate.
type Recommendation struct {
	ID    graph.VertexID
	Score float64
}

// Recommend scores every candidate against the user's current embedding and
// returns the top-k by dot product — the serving-side use of the trained
// encoder. Embeddings reflect the live topology at call time.
func (t *LinkTrainer) Recommend(u graph.VertexID, candidates []graph.VertexID, k int) ([]Recommendation, error) {
	if len(candidates) == 0 || k <= 0 {
		return nil, nil
	}
	nodes := append([]graph.VertexID{u}, candidates...)
	h, err := t.embed(nodes)
	if err != nil {
		return nil, err
	}
	hu := h.Row(0)
	recs := make([]Recommendation, len(candidates))
	for i, c := range candidates {
		hc := h.Row(i + 1)
		var s float64
		for d := 0; d < t.Model.Out; d++ {
			s += float64(hu[d] * hc[d])
		}
		recs[i] = Recommendation{ID: c, Score: s}
	}
	sort.Slice(recs, func(a, b int) bool {
		if recs[a].Score != recs[b].Score {
			return recs[a].Score > recs[b].Score
		}
		return recs[a].ID < recs[b].ID
	})
	if k > len(recs) {
		k = len(recs)
	}
	return recs[:k], nil
}
