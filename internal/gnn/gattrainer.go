package gnn

import (
	"math/rand"

	"platod2gl/internal/graph"
	"platod2gl/internal/view"
)

// GATModel is a two-layer graph-attention node classifier: the same
// sample-gather-aggregate pipeline as Model, with learned attention over
// each neighborhood instead of mean pooling. Both hops share one fanout F
// so each layer runs as a single joint forward over [seeds; hop1].
type GATModel struct {
	L1, L2 *GATLayer
	InDim  int
	Hidden int
	Out    int
}

// NewGATModel builds a Glorot-initialized 2-layer attention model.
func NewGATModel(inDim, hidden, classes int, rng *rand.Rand) *GATModel {
	return &GATModel{
		L1:     NewGATLayer(inDim, hidden, true, rng),
		L2:     NewGATLayer(hidden, classes, false, rng),
		InDim:  inDim,
		Hidden: hidden,
		Out:    classes,
	}
}

// Params returns all trainable tensors.
func (m *GATModel) Params() []*Matrix { return append(m.L1.Params(), m.L2.Params()...) }

// Grads returns all gradient tensors.
func (m *GATModel) Grads() []*Matrix { return append(m.L1.Grads(), m.L2.Grads()...) }

// ZeroGrads clears gradients.
func (m *GATModel) ZeroGrads() {
	m.L1.ZeroGrads()
	m.L2.ZeroGrads()
}

// GATTrainer drives mini-batch attention-GNN training against a GraphView.
type GATTrainer struct {
	Model *GATModel
	View  view.GraphView
	Opt   *Adam
	Rel   graph.EdgeType
	// Fanout applies to both hops.
	Fanout int
}

// NewGATTrainer wires an attention trainer to a graph view.
func NewGATTrainer(model *GATModel, v view.GraphView, rel graph.EdgeType, fanout int, lr float64) *GATTrainer {
	return &GATTrainer{
		Model:  model,
		View:   v,
		Opt:    NewAdam(lr),
		Rel:    rel,
		Fanout: fanout,
	}
}

// SampleBatch expands seeds two hops (both at Fanout) and builds the same
// block as Trainer.SampleBatch: one feature call over the distinct
// vertices, plus the seeds' labels, each checked against the classes.
func (t *GATTrainer) SampleBatch(seeds []graph.VertexID) (*Batch, error) {
	return sampleBatch(t.View, seeds, t.Rel, t.Fanout, t.Fanout, t.Model.InDim, t.Model.Out)
}

// Forward runs the 2-layer attention model, returning seed logits. Layer 1
// attends jointly for [seeds; hop1] over their raw neighbor rows
// [hop1; hop2], gathered from the block; layer 2 attends for the seeds over
// the hop-1 hidden states.
func (t *GATTrainer) Forward(b *Batch) *Matrix {
	nSeeds := len(b.Seeds)
	selfX := GatherRows(b.X, b.selfRows())
	neighX := GatherRows(b.X, b.childRows())
	h1 := t.Model.L1.Forward(selfX, neighX, t.Fanout)
	h1Seeds := SliceRows(h1, 0, nSeeds)
	h1Hop1 := SliceRows(h1, nSeeds, h1.Rows)
	return t.Model.L2.Forward(h1Seeds, h1Hop1, t.Fanout)
}

// TrainStep runs one forward/backward/update pass, returning the loss.
func (t *GATTrainer) TrainStep(b *Batch) float64 {
	t.Model.ZeroGrads()
	logits := t.Forward(b)
	loss, dLogits := SoftmaxCrossEntropy(logits, b.Labels)
	dH1Seeds, dH1Hop1 := t.Model.L2.Backward(dLogits)
	dH1 := VStack(dH1Seeds, dH1Hop1)
	// Features are constants, so layer 1 needs its weight gradients only.
	t.Model.L1.BackwardWeights(dH1)
	t.Opt.Step(t.Model.Params(), t.Model.Grads())
	return loss
}

// Accuracy evaluates classification accuracy on the given seeds.
func (t *GATTrainer) Accuracy(seeds []graph.VertexID) (float64, error) { return accuracy(t, seeds) }

// TrainEpoch shuffles seeds and trains mini-batches, returning mean loss.
func (t *GATTrainer) TrainEpoch(epoch int, seeds []graph.VertexID, batchSize int, rng *rand.Rand) (EpochResult, error) {
	return trainEpoch(t, epoch, seeds, batchSize, rng)
}
