// Package platod2gl is a Go implementation of PlatoD2GL ("An Efficient
// Dynamic Deep Graph Learning System for Graph Neural Network Training on
// Billion-Scale Graphs", ICDE 2024): an in-memory dynamic graph store built
// on per-vertex samtrees with Fenwick-tree (FSTable) weighted sampling,
// CP-IDs prefix compression, and PALM-style batch latch-free updates —
// plus the sampling operators and a GraphSAGE trainer that sit on top.
//
// # Quick start
//
//	g := platod2gl.New()
//	g.AddEdge(platod2gl.Edge{Src: 1, Dst: 2, Weight: 0.5})
//	g.AddEdge(platod2gl.Edge{Src: 1, Dst: 3, Weight: 1.5})
//	neighbors := g.SampleNeighbors([]platod2gl.VertexID{1}, 0, 10)
//
// The package re-exports the heterogeneous graph model (typed vertices and
// edges, timestamped update events), batched update application, weighted
// neighbor / node / subgraph sampling, an attribute store for features and
// labels, and end-to-end GNN training utilities. The distributed deployment
// lives in the cluster client (see cmd/platod2gl-server) and the paper's
// evaluation harness in cmd/platod2gl-bench.
package platod2gl

import (
	"io"
	"math/rand"

	"platod2gl/internal/core"
	"platod2gl/internal/dataset"
	"platod2gl/internal/gnn"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/sampler"
	"platod2gl/internal/storage"
	"platod2gl/internal/view"
)

// Re-exported graph model types; see the corresponding internal/graph docs.
type (
	// VertexID is a packed 64-bit vertex identifier (type byte ‖ local id).
	VertexID = graph.VertexID
	// VertexType identifies a vertex class of the heterogeneous schema.
	VertexType = graph.VertexType
	// EdgeType identifies a relation of the heterogeneous schema.
	EdgeType = graph.EdgeType
	// Edge is a weighted directed typed edge.
	Edge = graph.Edge
	// Event is one timestamped topology update.
	Event = graph.Event
	// EventKind enumerates topology update operations.
	EventKind = graph.EventKind
	// MetaPath is a sequence of edge types for multi-hop subgraph sampling.
	MetaPath = graph.MetaPath
	// Schema describes a heterogeneous graph's vertex and edge types.
	Schema = graph.Schema
	// Relation describes one edge type of a schema.
	Relation = graph.Relation
)

// Event kinds.
const (
	// AddEdge inserts an edge or updates its weight if present.
	AddEdge = graph.AddEdge
	// DeleteEdge removes an edge.
	DeleteEdge = graph.DeleteEdge
	// UpdateWeight changes an existing edge's weight.
	UpdateWeight = graph.UpdateWeight
)

// Sampling result types.
type (
	// NeighborBatch is a dense batched neighbor-sampling result.
	NeighborBatch = sampler.NeighborBatch
	// Subgraph is a multi-hop meta-path sampling result.
	Subgraph = sampler.Subgraph
	// SubgraphLayer is one hop of a Subgraph.
	SubgraphLayer = sampler.Layer
)

// GNN training types.
type (
	// Model is a two-layer GraphSAGE node classifier.
	Model = gnn.Model
	// Trainer drives mini-batch GNN training over the dynamic graph.
	Trainer = gnn.Trainer
	// Matrix is a dense float32 matrix.
	Matrix = gnn.Matrix
	// LinkModel is a GraphSAGE encoder for link prediction.
	LinkModel = gnn.LinkModel
	// LinkTrainer drives link-prediction (recommendation) training.
	LinkTrainer = gnn.LinkTrainer
	// SAGELayer is a GraphSAGE layer (mean aggregation, Eq. 1).
	SAGELayer = gnn.SAGELayer
	// GATLayer is a single-head graph attention layer.
	GATLayer = gnn.GATLayer
	// GATModel is a two-layer graph-attention node classifier.
	GATModel = gnn.GATModel
	// GATTrainer drives attention-GNN training over the dynamic graph.
	GATTrainer = gnn.GATTrainer
)

// EdgeKey addresses per-edge attributes.
type EdgeKey = kvstore.EdgeKey

// GraphView is the backend-agnostic storage seam GNN trainers consume:
// sampling plus feature/label access, implemented by a local graph
// (Graph.View) or a cluster client (internal/view.Cluster). See
// docs/TRAINING.md.
type GraphView = view.GraphView

// MakeVertexID packs a vertex type and a 56-bit local ID.
func MakeVertexID(t VertexType, local uint64) VertexID {
	return graph.MakeVertexID(t, local)
}

// DefaultCapacity is the default samtree node capacity (2^8).
const DefaultCapacity = core.DefaultCapacity

type config struct {
	capacity    int
	alpha       int
	compress    bool
	workers     int
	parallelism int
	seed        int64
}

// Option configures a Graph.
type Option func(*config)

// WithCapacity sets the samtree node capacity c (default 256).
func WithCapacity(c int) Option { return func(cf *config) { cf.capacity = c } }

// WithAlpha sets the α-Split slackness (default 0 = exact median splits).
func WithAlpha(a int) Option { return func(cf *config) { cf.alpha = a } }

// WithoutCompression disables CP-IDs prefix compression (the paper's
// "w/o CP" ablation).
func WithoutCompression() Option { return func(cf *config) { cf.compress = false } }

// WithWorkers bounds batch-update parallelism (default: one per CPU).
func WithWorkers(n int) Option { return func(cf *config) { cf.workers = n } }

// WithSamplerParallelism bounds batch-sampling parallelism (default 4).
func WithSamplerParallelism(n int) Option { return func(cf *config) { cf.parallelism = n } }

// WithSeed fixes the sampling seed for reproducible experiments.
func WithSeed(s int64) Option { return func(cf *config) { cf.seed = s } }

// Graph is a dynamic heterogeneous graph: samtree topology storage, a
// key-value attribute store, and sampling operators. All methods are safe
// for concurrent use.
type Graph struct {
	store    *storage.DynamicStore
	attrs    *kvstore.Store
	smp      *sampler.Sampler
	gview    *view.Local
	counters *core.Counters
}

// New returns an empty dynamic graph.
func New(opts ...Option) *Graph {
	cf := config{capacity: DefaultCapacity, compress: true, parallelism: 4, seed: 1}
	for _, o := range opts {
		o(&cf)
	}
	counters := &core.Counters{}
	store := storage.NewDynamicStore(storage.Options{
		Tree: core.Options{
			Capacity: cf.capacity,
			Alpha:    cf.alpha,
			Compress: cf.compress,
			Counters: counters,
		},
		Workers: cf.workers,
	})
	attrs := kvstore.New()
	smpOpt := sampler.Options{Parallelism: cf.parallelism, Seed: cf.seed}
	return &Graph{
		store:    store,
		attrs:    attrs,
		smp:      sampler.New(store, smpOpt),
		gview:    view.NewLocal(store, attrs, smpOpt),
		counters: counters,
	}
}

// View returns a GraphView over this graph's local stores, sharing the
// graph's sampler parallelism and seed (WithSamplerParallelism, WithSeed).
// Trainers built by NewTrainer/NewGATTrainer/NewLinkTrainer consume it; use
// it directly to drive internal/pipeline or custom training loops.
func (g *Graph) View() GraphView { return g.gview }

// AddEdge inserts e, or updates its weight if already present. Reports
// whether the edge was new.
func (g *Graph) AddEdge(e Edge) bool { return g.store.AddEdge(e) }

// DeleteEdge removes the edge; reports whether it existed.
func (g *Graph) DeleteEdge(src, dst VertexID, et EdgeType) bool {
	return g.store.DeleteEdge(src, dst, et)
}

// UpdateEdgeWeight changes an existing edge's weight; reports whether the
// edge existed.
func (g *Graph) UpdateEdgeWeight(src, dst VertexID, et EdgeType, w float64) bool {
	return g.store.UpdateWeight(src, dst, et, w)
}

// Apply applies a batch of update events with the PALM-style latch-free
// batch mechanism. Events may be reordered, but per-edge order is preserved:
// by timestamp, and in batch order among equal timestamps.
func (g *Graph) Apply(events []Event) { g.store.ApplyBatch(events) }

// EdgeWeight returns the weight of the edge, if present.
func (g *Graph) EdgeWeight(src, dst VertexID, et EdgeType) (float64, bool) {
	return g.store.EdgeWeight(src, dst, et)
}

// Degree returns the out-degree of src under relation et.
func (g *Graph) Degree(src VertexID, et EdgeType) int { return g.store.Degree(src, et) }

// Neighbors returns all out-neighbors and weights of src under et.
func (g *Graph) Neighbors(src VertexID, et EdgeType) ([]VertexID, []float64) {
	return g.store.Neighbors(src, et)
}

// NeighborsInRange returns src's out-neighbors with IDs in [lo, hi] — an
// ordered range scan over the samtree's routing keys.
func (g *Graph) NeighborsInRange(src VertexID, et EdgeType, lo, hi VertexID) ([]VertexID, []float64) {
	return g.store.NeighborsInRange(src, et, lo, hi)
}

// NeighborsOfType returns src's out-neighbors of vertex type vt: a range
// scan over the type's packed 2^56-wide ID band.
func (g *Graph) NeighborsOfType(src VertexID, et EdgeType, vt VertexType) ([]VertexID, []float64) {
	lo := MakeVertexID(vt, 0)
	hi := MakeVertexID(vt, graph.MaxLocalID)
	return g.store.NeighborsInRange(src, et, lo, hi)
}

// Sources returns the vertices with out-edges under et.
func (g *Graph) Sources(et EdgeType) []VertexID { return g.store.Sources(et) }

// NumEdges returns the current edge count.
func (g *Graph) NumEdges() int64 { return g.store.NumEdges() }

// MemoryBytes returns the structural memory footprint of the topology.
func (g *Graph) MemoryBytes() int64 { return g.store.MemoryBytes() }

// RelationStats summarizes one relation's topology.
type RelationStats = storage.RelationStats

// Stats summarizes every relation in the graph.
func (g *Graph) Stats() []RelationStats { return g.store.AllStats() }

// SampleNodes draws k sources of relation et uniformly (with replacement).
func (g *Graph) SampleNodes(et EdgeType, k int, rng *rand.Rand) []VertexID {
	return g.smp.SampleNodes(et, k, rng)
}

// SampleNeighbors draws fanout weighted neighbors (with replacement) per
// seed; seeds without out-neighbors fall back to themselves so the result
// stays dense.
func (g *Graph) SampleNeighbors(seeds []VertexID, et EdgeType, fanout int) *NeighborBatch {
	return g.smp.SampleNeighbors(seeds, et, fanout)
}

// SampleNeighborsUniform draws fanout unweighted neighbors per seed (each
// neighbor with probability 1/degree — plain GraphSAGE's sampling mode).
func (g *Graph) SampleNeighborsUniform(seeds []VertexID, et EdgeType, fanout int) *NeighborBatch {
	return g.smp.SampleNeighborsUniform(seeds, et, fanout)
}

// SampleNeighborsDistinct draws up to k distinct weighted neighbors of src
// (without replacement); k >= degree returns all neighbors.
func (g *Graph) SampleNeighborsDistinct(src VertexID, et EdgeType, k int, rng *rand.Rand) []VertexID {
	return g.store.SampleNeighborsDistinct(src, et, k, rng, nil)
}

// SampleSubgraph expands seeds along a meta-path with per-hop fanouts.
func (g *Graph) SampleSubgraph(seeds []VertexID, path MetaPath, fanouts []int) *Subgraph {
	return g.smp.SampleSubgraph(seeds, path, fanouts)
}

// RandomWalk performs weighted random walks of the given length from each
// seed, returning rows of length+1 vertices (a length of 0 or less returns
// each seed alone).
func (g *Graph) RandomWalk(seeds []VertexID, et EdgeType, length int) [][]VertexID {
	return g.smp.RandomWalk(seeds, et, length)
}

// SetFeatures stores a feature vector (retained, do not mutate).
func (g *Graph) SetFeatures(id VertexID, f []float32) { g.attrs.SetFeatures(id, f) }

// Features returns the stored feature vector (shared, do not mutate).
func (g *Graph) Features(id VertexID) ([]float32, bool) { return g.attrs.Features(id) }

// SetLabel stores a class label.
func (g *Graph) SetLabel(id VertexID, label int32) { g.attrs.SetLabel(id, label) }

// Label returns the stored class label.
func (g *Graph) Label(id VertexID) (int32, bool) { return g.attrs.Label(id) }

// GatherFeatures copies feature rows into a dense (len(ids) × dim) matrix.
func (g *Graph) GatherFeatures(ids []VertexID, dim int) []float32 {
	return g.attrs.GatherFeatures(ids, dim)
}

// Save serializes the topology to w as an engine-neutral snapshot.
func (g *Graph) Save(w io.Writer) error { return g.store.Save(w) }

// Load merges a snapshot previously written by Save into the graph.
func (g *Graph) Load(r io.Reader) error { return g.store.Load(r) }

// LeafUpdateShare reports the fraction of topology updates that touched
// only leaf structures (the paper's Table V quantity).
func (g *Graph) LeafUpdateShare() float64 { return g.counters.LeafShare() }

// NewModel builds a Glorot-initialized 2-layer GraphSAGE model.
func NewModel(inDim, hidden, classes int, rng *rand.Rand) *Model {
	return gnn.NewModel(inDim, hidden, classes, rng)
}

// NewTrainer wires a GNN trainer to this graph: relation rel is expanded
// with fanouts f1 (hop 1) and f2 (hop 2).
func (g *Graph) NewTrainer(model *Model, rel EdgeType, f1, f2 int, lr float64) *Trainer {
	return gnn.NewTrainer(model, g.gview, rel, f1, f2, lr)
}

// NewGATLayer builds a Glorot-initialized graph attention layer.
func NewGATLayer(in, out int, act bool, rng *rand.Rand) *GATLayer {
	return gnn.NewGATLayer(in, out, act, rng)
}

// NewGATModel builds a 2-layer graph-attention node classifier.
func NewGATModel(inDim, hidden, classes int, rng *rand.Rand) *GATModel {
	return gnn.NewGATModel(inDim, hidden, classes, rng)
}

// NewGATTrainer wires an attention-GNN trainer: relation rel expanded at
// the same fanout on both hops.
func (g *Graph) NewGATTrainer(model *GATModel, rel EdgeType, fanout int, lr float64) *GATTrainer {
	return gnn.NewGATTrainer(model, g.gview, rel, fanout, lr)
}

// NewLinkModel builds a GraphSAGE link-prediction encoder.
func NewLinkModel(inDim, outDim int, rng *rand.Rand) *LinkModel {
	return gnn.NewLinkModel(inDim, outDim, rng)
}

// NewLinkTrainer wires a link-prediction trainer (the recommendation
// objective): positives are observed edges of rel, negatives are drawn
// uniformly from negativePool.
func (g *Graph) NewLinkTrainer(model *LinkModel, rel EdgeType, fanout int, lr float64, negativePool []VertexID, seed int64) *LinkTrainer {
	return gnn.NewLinkTrainer(model, g.gview, rel, fanout, lr, negativePool, seed)
}

// SaveModelParams serializes GNN parameters (from Model.Params or
// LinkModel.Enc.Params) to w.
func SaveModelParams(w io.Writer, params []*Matrix) error { return gnn.SaveParams(w, params) }

// LoadModelParams restores GNN parameters in place from r.
func LoadModelParams(r io.Reader, params []*Matrix) error { return gnn.LoadParams(r, params) }

// SetEdgeFeatures stores per-edge attributes (retained, do not mutate).
func (g *Graph) SetEdgeFeatures(k EdgeKey, f []float32) { g.attrs.SetEdgeFeatures(k, f) }

// EdgeFeatures returns stored per-edge attributes (shared, do not mutate).
func (g *Graph) EdgeFeatures(k EdgeKey) ([]float32, bool) { return g.attrs.EdgeFeatures(k) }

// Dataset re-exports: synthetic stand-ins for the paper's evaluation graphs.
type (
	// DatasetSpec describes a synthetic dataset (Table III shape).
	DatasetSpec = dataset.Spec
	// EventGenerator produces a deterministic dynamic event stream.
	EventGenerator = dataset.Generator
	// EventMix controls the add/update/delete composition of a stream.
	EventMix = dataset.Mix
)

// Synthetic dataset specs matching Table III of the paper.
var (
	// OGBNSpec mirrors OGBN-Products (density 25.8).
	OGBNSpec = dataset.OGBNSim
	// RedditSpec mirrors Reddit (density 489.3).
	RedditSpec = dataset.RedditSim
	// WeChatSpec mirrors the WeChat production graph (4 relations).
	WeChatSpec = dataset.WeChatSim
)

// NewEventGenerator returns a deterministic event stream for a spec.
func NewEventGenerator(spec *DatasetSpec, mix EventMix, seed int64) *EventGenerator {
	return dataset.NewGenerator(spec, mix, seed)
}

// Event mixes for common workloads.
var (
	// BuildMix is pure insertion (graph building).
	BuildMix = dataset.BuildMix
	// DynamicMix models live recommendation traffic (inserts, repeats,
	// weight updates, deletions).
	DynamicMix = dataset.DynamicMix
)

// AssignSyntheticFeatures populates learnable features and labels for n
// vertices of type vt (class-centroid + noise; see internal/dataset).
func (g *Graph) AssignSyntheticFeatures(vt VertexType, n uint64, dim, classes int, noise float64, seed int64) {
	dataset.AssignFeatures(g.attrs, vt, n, dim, classes, noise, seed)
}
