package gnn

import (
	"fmt"
	"math/rand"

	"platod2gl/internal/graph"
	"platod2gl/internal/view"
)

// Model is a two-layer GraphSAGE node classifier (Fig. 1's training phase):
// layer 1 lifts raw features to a hidden representation, layer 2 maps to
// class logits. Dynamic GNN training re-samples neighborhoods from the live
// graph every batch, so topology updates are reflected immediately.
type Model struct {
	L1, L2 *SAGELayer
	InDim  int
	Hidden int
	Out    int
}

// NewModel builds a Glorot-initialized 2-layer model.
func NewModel(inDim, hidden, classes int, rng *rand.Rand) *Model {
	return &Model{
		L1:     NewSAGELayer(inDim, hidden, true, rng),
		L2:     NewSAGELayer(hidden, classes, false, rng),
		InDim:  inDim,
		Hidden: hidden,
		Out:    classes,
	}
}

// Params returns all trainable tensors.
func (m *Model) Params() []*Matrix { return append(m.L1.Params(), m.L2.Params()...) }

// Grads returns all gradient tensors.
func (m *Model) Grads() []*Matrix { return append(m.L1.Grads(), m.L2.Grads()...) }

// ZeroGrads clears gradients.
func (m *Model) ZeroGrads() {
	m.L1.ZeroGrads()
	m.L2.ZeroGrads()
}

// Batch is one sampled mini-batch as a block (DGL's unique-node block):
// seeds plus their 2-hop neighborhood, with one feature row per distinct
// vertex. Multi-hop frontiers repeat vertices heavily, so X is much shorter
// than the position lists, and every position reads its row through Rows.
type Batch struct {
	Seeds  []graph.VertexID
	Hop1   []graph.VertexID // len(Seeds) * F1
	Hop2   []graph.VertexID // len(Seeds) * F1 * F2
	F1, F2 int

	// X holds one feature row per distinct vertex: those of Seeds ∪ Hop1
	// first, then the remaining ones of Hop2, each part in first-occurrence
	// order.
	X *Matrix
	// NSelf is the number of leading rows of X that belong to Seeds ∪ Hop1,
	// the rows layer 1 projects through Wself.
	NSelf int
	// Rows maps every position to its row of X: the seed positions, then the
	// hop-1 positions, then the hop-2 positions.
	Rows   []int32
	Labels []int32
}

// selfRows are the rows of the seed and hop-1 positions, layer 1's self
// inputs.
func (b *Batch) selfRows() []int32 { return b.Rows[:len(b.Seeds)+len(b.Hop1)] }

// childRows are the rows of the hop-1 and hop-2 positions, the neighbors of
// the self positions in the same order.
func (b *Batch) childRows() []int32 { return b.Rows[len(b.Seeds):] }

// hop1Rows and hop2Rows are the rows of the hop-1 and the hop-2 positions.
func (b *Batch) hop1Rows() []int32 { return b.Rows[len(b.Seeds) : len(b.Seeds)+len(b.Hop1)] }

func (b *Batch) hop2Rows() []int32 { return b.Rows[len(b.Seeds)+len(b.Hop1):] }

// SampleBlock expands the seeds two hops over rel and builds their block,
// with one view round trip for the sample and one for the features of the
// distinct vertices. It fetches no labels, so inference builds the same
// block training does.
func SampleBlock(v view.GraphView, seeds []graph.VertexID, rel graph.EdgeType, f1, f2, dim int) (*Batch, error) {
	b, distinct, err := sampleLayers(v, seeds, rel, f1, f2)
	if err != nil {
		return nil, err
	}
	if b.X, err = features(v, distinct, dim); err != nil {
		return nil, err
	}
	return b, nil
}

// sampleBatch is SampleBlock with the seeds' labels: a training batch. The
// labels ride the features' view call (view.FeaturesLabels), which gathers
// one per distinct vertex; seed i's is the one of its row, b.Rows[i]. A
// label outside [0, classes) is an error, since the loss would index past
// the logits' row.
func sampleBatch(v view.GraphView, seeds []graph.VertexID, rel graph.EdgeType, f1, f2, dim, classes int) (*Batch, error) {
	b, distinct, err := sampleLayers(v, seeds, rel, f1, f2)
	if err != nil {
		return nil, err
	}
	x, labels, err := view.FeaturesLabels(v, distinct, dim)
	if err != nil {
		return nil, fmt.Errorf("gnn: gather features and labels: %w", err)
	}
	b.X = NewMatrixFrom(len(distinct), dim, x)
	b.Labels = make([]int32, len(seeds))
	for i, row := range b.Rows[:len(seeds)] {
		l := labels[row]
		if l < 0 || int(l) >= classes {
			return nil, fmt.Errorf("gnn: vertex %v has label %d, outside the model's %d classes", seeds[i], l, classes)
		}
		b.Labels[i] = l
	}
	return b, nil
}

// sampleLayers expands the seeds two hops over rel in one view call and
// indexes the positions by distinct vertex: a block without its rows.
func sampleLayers(v view.GraphView, seeds []graph.VertexID, rel graph.EdgeType, f1, f2 int) (*Batch, []graph.VertexID, error) {
	layers, err := v.SampleSubgraph(seeds, graph.MetaPath{rel, rel}, []int{f1, f2})
	if err != nil {
		return nil, nil, fmt.Errorf("gnn: sample subgraph: %w", err)
	}
	b := &Batch{Seeds: seeds, Hop1: layers[0], Hop2: layers[1], F1: f1, F2: f2}
	var distinct []graph.VertexID
	distinct, b.Rows, b.NSelf = dedupe([][]graph.VertexID{seeds, b.Hop1}, b.Hop2)
	return b, distinct, nil
}

// dedupe lists the distinct vertices of the self position lists, then those
// of rest that self lacks, each part in first-occurrence order. rows maps
// every position, self's lists first and rest last, to its vertex's index
// in distinct, and nSelf is the number of distinct self vertices. A fresh
// graph.Grouping makes three allocations sized by the input alone, where a
// map's growth depends on its random seed.
func dedupe(self [][]graph.VertexID, rest []graph.VertexID) (distinct []graph.VertexID, rows []int32, nSelf int) {
	n := len(rest)
	for _, ids := range self {
		n += len(ids)
	}
	var g graph.Grouping
	g.Reset(n)
	for _, ids := range self {
		g.Add(ids)
	}
	nSelf = len(g.IDs)
	g.Add(rest)
	return g.IDs, g.Of, nSelf
}

// features fetches the rows of ids, in order, in one view call.
func features(v view.GraphView, ids []graph.VertexID, dim int) (*Matrix, error) {
	x, err := v.Features(ids, dim)
	if err != nil {
		return nil, fmt.Errorf("gnn: gather features: %w", err)
	}
	return NewMatrixFrom(len(ids), dim, x), nil
}

// layer1Inputs are layer 1's inputs for the block: the distinct self rows
// of X, which it projects through Wself once each, and the neighbor means
// of the seed and hop-1 positions, pooled straight out of X into one
// matrix.
func (b *Batch) layer1Inputs() (selfX, neighX *Matrix) {
	selfX = rowView(b.X, 0, b.NSelf)
	n1 := pooledRows(len(b.Hop1), b.F1)
	neighX = NewMatrix(n1+pooledRows(len(b.Hop2), b.F2), b.X.Cols)
	meanPool(rowView(neighX, 0, n1), b.X, b.hop1Rows(), b.F1)
	meanPool(rowView(neighX, n1, neighX.Rows), b.X, b.hop2Rows(), b.F2)
	return selfX, neighX
}

// Layer1 returns layer 1's hidden states for the block's seed positions,
// then its hop-1 positions: the representation Forward feeds layer 2. It
// reads only the weights, so concurrent callers may share the model.
func (m *Model) Layer1(b *Batch) *Matrix {
	selfX, neighX := b.layer1Inputs()
	return m.L1.Apply(selfX, b.selfRows(), neighX)
}

// Trainer drives mini-batch GNN training against a GraphView — it never
// touches a concrete store, so the same trainer runs over an in-process
// graph (view.Local) or a sharded cluster (view.Cluster).
type Trainer struct {
	Model *Model
	View  view.GraphView
	Opt   *Adam
	// Rel is the relation to expand over both hops.
	Rel graph.EdgeType
	// F1, F2 are the per-hop fanouts.
	F1, F2 int
}

// NewTrainer wires a trainer to a graph view.
func NewTrainer(model *Model, v view.GraphView, rel graph.EdgeType, f1, f2 int, lr float64) *Trainer {
	return &Trainer{
		Model: model,
		View:  v,
		Opt:   NewAdam(lr),
		Rel:   rel,
		F1:    f1,
		F2:    f2,
	}
}

// SampleBatch expands the seeds two hops and builds the batch's block: the
// features and labels of every distinct vertex of seeds and both hops in
// one view call (a remote backend pays one fan-out for both), with the
// seeds' labels read from their rows. Seeds without labels get label 0 —
// callers training on labeled sets should pass labeled seeds. A label
// outside the model's classes is an error naming the vertex.
func (t *Trainer) SampleBatch(seeds []graph.VertexID) (*Batch, error) {
	return sampleBatch(t.View, seeds, t.Rel, t.F1, t.F2, t.Model.InDim, t.Model.Out)
}

// Forward runs the 2-layer model on a batch, returning seed logits, which
// the caller owns.
//
// Layer 1 is applied jointly to [seeds; hop1] (self inputs) against their
// pooled children ([hop1 means; hop2 means]), as in Layer1 but caching for
// backprop; layer 2 then combines the seeds' hidden states with the pooled
// hop-1 hidden states, both read in place from layer 1's output.
func (t *Trainer) Forward(b *Batch) *Matrix {
	nSeeds := len(b.Seeds)
	selfX, neighX := b.layer1Inputs()
	h1 := t.Model.L1.ForwardRows(selfX, b.selfRows(), neighX)
	return t.Model.L2.Forward(rowView(h1, 0, nSeeds), MeanPool(rowView(h1, nSeeds, h1.Rows), b.F1))
}

// TrainStep runs one forward/backward/update pass and returns the batch
// loss.
func (t *Trainer) TrainStep(b *Batch) float64 {
	t.Model.ZeroGrads()
	logits := t.Forward(b)
	loss, dLogits := SoftmaxCrossEntropy(logits, b.Labels)
	t.backward(b, dLogits)
	t.Opt.Step(t.Model.Params(), t.Model.Grads())
	return loss
}

// backward takes dL/dlogits back through both layers. Layer 1's upstream
// gradient is one matrix: the seeds' rows copied from layer 2's self
// gradient, and the hop-1 rows written by the pool's backward in place.
func (t *Trainer) backward(b *Batch, dLogits *Matrix) {
	nSeeds := len(b.Seeds)
	dH1Seeds, dH1Hop1Pooled := t.Model.L2.Backward(dLogits)
	dH1 := NewMatrix(nSeeds+len(b.Hop1), dH1Seeds.Cols)
	copy(dH1.Data, dH1Seeds.Data)
	meanPoolBackward(rowView(dH1, nSeeds, dH1.Rows), dH1Hop1Pooled, b.F1)
	// Features are constants, so layer 1 needs its weight gradients only.
	t.Model.L1.BackwardWeights(dH1)
}

// Loss computes the batch loss without updating parameters.
func (t *Trainer) Loss(b *Batch) float64 {
	logits := t.Forward(b)
	loss, _ := SoftmaxCrossEntropy(logits, b.Labels)
	return loss
}

// Accuracy evaluates classification accuracy on the given seeds.
func (t *Trainer) Accuracy(seeds []graph.VertexID) (float64, error) { return accuracy(t, seeds) }

// batchTrainer is what the shared evaluation and epoch loops need of a
// trainer: Trainer and GATTrainer both provide it.
type batchTrainer interface {
	SampleBatch(seeds []graph.VertexID) (*Batch, error)
	Forward(b *Batch) *Matrix
	TrainStep(b *Batch) float64
}

// accuracy scores t's predictions for seeds, sampled as one batch.
func accuracy(t batchTrainer, seeds []graph.VertexID) (float64, error) {
	if len(seeds) == 0 {
		return 0, nil
	}
	b, err := t.SampleBatch(seeds)
	if err != nil {
		return 0, err
	}
	pred := Argmax(t.Forward(b))
	correct := 0
	for i, p := range pred {
		if p == b.Labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(seeds)), nil
}

// EpochResult summarizes one training epoch.
type EpochResult struct {
	Epoch    int
	MeanLoss float64
	Batches  int
}

func (e EpochResult) String() string {
	return fmt.Sprintf("epoch %d: mean loss %.4f over %d batches", e.Epoch, e.MeanLoss, e.Batches)
}

// TrainEpoch shuffles the seed set, trains on consecutive mini-batches, and
// returns the mean loss. This is the synchronous loop — sample, fetch,
// train, strictly in series; internal/pipeline overlaps the sampling and
// feature I/O of upcoming batches with the current TrainStep.
func (t *Trainer) TrainEpoch(epoch int, seeds []graph.VertexID, batchSize int, rng *rand.Rand) (EpochResult, error) {
	return trainEpoch(t, epoch, seeds, batchSize, rng)
}

// trainEpoch trains t on consecutive mini-batches of one rng.Perm of seeds
// and returns the mean loss.
func trainEpoch(t batchTrainer, epoch int, seeds []graph.VertexID, batchSize int, rng *rand.Rand) (EpochResult, error) {
	perm := rng.Perm(len(seeds))
	totalLoss := 0.0
	batches := 0
	for lo := 0; lo+batchSize <= len(perm); lo += batchSize {
		batch := make([]graph.VertexID, batchSize)
		for i := 0; i < batchSize; i++ {
			batch[i] = seeds[perm[lo+i]]
		}
		b, err := t.SampleBatch(batch)
		if err != nil {
			return EpochResult{Epoch: epoch}, err
		}
		totalLoss += t.TrainStep(b)
		batches++
	}
	if batches == 0 {
		return EpochResult{Epoch: epoch}, nil
	}
	return EpochResult{Epoch: epoch, MeanLoss: totalLoss / float64(batches), Batches: batches}, nil
}
