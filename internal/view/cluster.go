package view

import (
	"context"
	"sync/atomic"
	"time"

	"platod2gl/internal/cluster"
	"platod2gl/internal/graph"
)

// Cluster adapts the fan-out cluster client to the GraphView contract, so
// trainers run unchanged against a sharded deployment: sampling and
// feature/label pulls become RPCs to the shards owning each vertex.
//
// Sampling RPCs carry an explicit RNG seed; Cluster derives a fresh one per
// call from the base seed, so repeated calls draw fresh samples while a
// single-threaded run stays reproducible end to end.
//
// Every call can carry an end-to-end budget (SetCallBudget): the deadline
// propagates through the client's retry loop and onto the wire as the
// request's remaining budget, so an overloaded server can shed the call
// instead of servicing it after the trainer has given up. Prefetch returns a
// twin view whose requests ride the lower prefetch admission class.
type Cluster struct {
	client *cluster.Client
	seed   int64
	seq    *atomic.Int64

	budget time.Duration
	pri    cluster.Priority
	hasPri bool
}

var (
	_ GraphView      = (*Cluster)(nil)
	_ FeatureLabeler = (*Cluster)(nil)
)

// NewCluster wraps client. seed makes the per-call sampling seed sequence
// reproducible for single-threaded (deterministic-mode) runs.
func NewCluster(client *cluster.Client, seed int64) *Cluster {
	return &Cluster{client: client, seed: seed, seq: new(atomic.Int64)}
}

// SetCallBudget sets the end-to-end deadline attached to every subsequent
// call through this view (and views derived from it afterwards). Zero
// disables the deadline (the default).
func (v *Cluster) SetCallBudget(d time.Duration) { v.budget = d }

// Prefetch returns a view over the same client, seed sequence, and budget
// whose requests are tagged with the prefetch admission class: under
// overload, servers shed them before interactive sampling traffic. Use it as
// the pipeline's loader view so background batch building yields to
// foreground work.
func (v *Cluster) Prefetch() *Cluster {
	w := *v
	w.pri = cluster.PriorityPrefetch
	w.hasPri = true
	return &w
}

// Background returns a view over the same client, seed sequence, and budget
// whose requests ride the background admission class — below both
// interactive and prefetch traffic. The serving tier's embedding refresher
// uses it so index maintenance never competes with live queries.
func (v *Cluster) Background() *Cluster {
	w := *v
	w.pri = cluster.PriorityBackground
	w.hasPri = true
	return &w
}

// ctx derives the per-call context: the view's priority class (when set) and
// call budget (when set) become the request's admission envelope.
func (v *Cluster) ctx() (context.Context, context.CancelFunc) {
	ctx := context.Background()
	if v.hasPri {
		ctx = cluster.WithPriority(ctx, v.pri)
	}
	if v.budget > 0 {
		return context.WithTimeout(ctx, v.budget)
	}
	return ctx, func() {}
}

// nextSeed spreads consecutive calls across the server-side RNG seed space.
func (v *Cluster) nextSeed() int64 {
	return v.seed + v.seq.Add(1)*1_000_003
}

// SamplePos returns the number of sampling calls issued so far — the cursor
// into the per-call seed sequence. Training checkpoints record it so a
// resumed deterministic run draws the same samples the uninterrupted run
// would have.
func (v *Cluster) SamplePos() int64 { return v.seq.Load() }

// SetSamplePos restores a cursor recorded by SamplePos.
func (v *Cluster) SetSamplePos(pos int64) { v.seq.Store(pos) }

// SampleNeighbors implements GraphView.
func (v *Cluster) SampleNeighbors(seeds []graph.VertexID, et graph.EdgeType, fanout int) ([]graph.VertexID, error) {
	ctx, cancel := v.ctx()
	defer cancel()
	return v.client.SampleNeighborsCtx(ctx, seeds, et, fanout, v.nextSeed())
}

// SampleSubgraph implements GraphView.
func (v *Cluster) SampleSubgraph(seeds []graph.VertexID, path graph.MetaPath, fanouts []int) ([][]graph.VertexID, error) {
	ctx, cancel := v.ctx()
	defer cancel()
	return v.client.SampleSubgraphCtx(ctx, seeds, path, fanouts, v.nextSeed())
}

// Degrees implements GraphView.
func (v *Cluster) Degrees(nodes []graph.VertexID, et graph.EdgeType) ([]int, error) {
	ctx, cancel := v.ctx()
	defer cancel()
	return v.client.DegreeCtx(ctx, nodes, et)
}

// Features implements GraphView.
func (v *Cluster) Features(nodes []graph.VertexID, dim int) ([]float32, error) {
	ctx, cancel := v.ctx()
	defer cancel()
	return v.client.FeaturesCtx(ctx, nodes, dim)
}

// FeaturesLabels implements FeatureLabeler: one Features fan-out that
// carries the labels too.
func (v *Cluster) FeaturesLabels(nodes []graph.VertexID, dim int) ([]float32, []int32, error) {
	ctx, cancel := v.ctx()
	defer cancel()
	return v.client.FeaturesLabelsCtx(ctx, nodes, dim)
}

// Labels implements GraphView.
func (v *Cluster) Labels(nodes []graph.VertexID) ([]int32, error) {
	ctx, cancel := v.ctx()
	defer cancel()
	_, labels, err := v.client.FeaturesLabelsCtx(ctx, nodes, 0)
	return labels, err
}

// Sources implements GraphView.
func (v *Cluster) Sources(et graph.EdgeType) ([]graph.VertexID, error) {
	ctx, cancel := v.ctx()
	defer cancel()
	return v.client.SourcesCtx(ctx, et)
}
