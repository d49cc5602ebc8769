// Package view decouples GNN training from graph storage: GraphView is the
// backend-agnostic contract of the paper's TF-operator layer (Sec. III) —
// trainers issue neighbor/subgraph sampling and feature/label pulls against
// it and never touch a concrete store. Local wraps an in-process
// storage.TopologyStore + kvstore.Store behind the contract; Cluster (see
// cluster.go) adapts the fan-out cluster client, so the same training loop
// runs against one machine or a sharded deployment unchanged.
package view

import (
	"fmt"
	"slices"
	"time"

	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/sampler"
	"platod2gl/internal/storage"
)

// GraphView is the storage seam trainers consume. Every implementation
// shares the protocol's dense-result conventions: sampling results are
// always full length (a seed without out-neighbors yields itself — the
// self-loop fallback), unknown vertices produce zero feature rows, and
// unlabeled vertices get label 0.
type GraphView interface {
	// SampleNeighbors draws fanout weighted neighbors (with replacement)
	// per seed under relation et; len(result) == len(seeds)*fanout.
	SampleNeighbors(seeds []graph.VertexID, et graph.EdgeType, fanout int) ([]graph.VertexID, error)
	// SampleSubgraph expands seeds hop by hop along the meta-path: layer i
	// holds len(previous frontier) * fanouts[i] nodes.
	SampleSubgraph(seeds []graph.VertexID, path graph.MetaPath, fanouts []int) ([][]graph.VertexID, error)
	// Degrees returns the out-degree of each node under et.
	Degrees(nodes []graph.VertexID, et graph.EdgeType) ([]int, error)
	// Features gathers a dense row-major (len(nodes) x dim) feature matrix.
	Features(nodes []graph.VertexID, dim int) ([]float32, error)
	// Labels returns the class label of each node (0 when unlabeled).
	Labels(nodes []graph.VertexID) ([]int32, error)
	// Sources lists the vertices with out-edges under et.
	Sources(et graph.EdgeType) ([]graph.VertexID, error)
}

// FeatureLabeler is implemented by views that gather feature rows and
// labels of the same vertices in one call: a remote backend then pays one
// fan-out for both, a local one one store lookup per vertex.
type FeatureLabeler interface {
	// FeaturesLabels is Features and Labels of nodes in one call.
	FeaturesLabels(nodes []graph.VertexID, dim int) ([]float32, []int32, error)
}

// FeaturesLabels gathers the feature rows and labels of nodes through v's
// FeaturesLabels when v has it, and otherwise through Features and then
// Labels.
func FeaturesLabels(v GraphView, nodes []graph.VertexID, dim int) ([]float32, []int32, error) {
	if fl, ok := v.(FeatureLabeler); ok {
		return fl.FeaturesLabels(nodes, dim)
	}
	x, err := v.Features(nodes, dim)
	if err != nil {
		return nil, nil, err
	}
	labels, err := v.Labels(nodes)
	if err != nil {
		return nil, nil, err
	}
	return x, labels, nil
}

// Local is the single-machine GraphView: a topology store, its sampler, and
// an attribute store. Its sampling calls reject the arguments the cluster
// client rejects (a negative fanout, a meta-path and fanouts of different
// lengths); every other error is nil.
type Local struct {
	store storage.TopologyStore
	attrs *kvstore.Store
	smp   *sampler.Sampler
}

// NewLocal wraps store and attrs behind the GraphView contract. opt tunes
// the batch sampler (parallelism, determinism seed) — the knobs trainers
// previously hardcoded.
func NewLocal(store storage.TopologyStore, attrs *kvstore.Store, opt sampler.Options) *Local {
	return &Local{store: store, attrs: attrs, smp: sampler.New(store, opt)}
}

// SampleNeighbors implements GraphView.
func (v *Local) SampleNeighbors(seeds []graph.VertexID, et graph.EdgeType, fanout int) ([]graph.VertexID, error) {
	if fanout < 0 {
		return nil, fmt.Errorf("view: negative fanout %d", fanout)
	}
	return v.smp.SampleNeighbors(seeds, et, fanout).Neighbors, nil
}

// SampleSubgraph implements GraphView.
func (v *Local) SampleSubgraph(seeds []graph.VertexID, path graph.MetaPath, fanouts []int) ([][]graph.VertexID, error) {
	if len(path) != len(fanouts) {
		return nil, fmt.Errorf("view: meta-path length %d != fanouts %d", len(path), len(fanouts))
	}
	if i := slices.IndexFunc(fanouts, func(f int) bool { return f < 0 }); i >= 0 {
		return nil, fmt.Errorf("view: negative fanout %d", fanouts[i])
	}
	sg := v.smp.SampleSubgraph(seeds, path, fanouts)
	layers := make([][]graph.VertexID, len(sg.Layers))
	for i, l := range sg.Layers {
		layers[i] = l.Nodes
	}
	return layers, nil
}

// Degrees implements GraphView.
func (v *Local) Degrees(nodes []graph.VertexID, et graph.EdgeType) ([]int, error) {
	out := make([]int, len(nodes))
	for i, n := range nodes {
		out[i] = v.store.Degree(n, et)
	}
	return out, nil
}

// Features implements GraphView.
func (v *Local) Features(nodes []graph.VertexID, dim int) ([]float32, error) {
	return v.attrs.GatherFeatures(nodes, dim), nil
}

// Labels implements GraphView.
func (v *Local) Labels(nodes []graph.VertexID) ([]int32, error) {
	return v.attrs.GatherLabels(nodes), nil
}

// FeaturesLabels implements FeatureLabeler.
func (v *Local) FeaturesLabels(nodes []graph.VertexID, dim int) ([]float32, []int32, error) {
	x, labels := v.attrs.GatherFeaturesLabels(nodes, dim)
	return x, labels, nil
}

// Sources implements GraphView.
func (v *Local) Sources(et graph.EdgeType) ([]graph.VertexID, error) {
	return v.store.Sources(et), nil
}

// sampleCursor is implemented by views whose per-call sampling seeds form a
// recorded sequence (view.Cluster). Checkpoint/resume records and restores
// the cursor so a resumed deterministic run replays the exact sampling-seed
// sequence the uninterrupted run would have used.
type sampleCursor interface {
	SamplePos() int64
	SetSamplePos(int64)
}

// unwrapper is implemented by wrapper views (Instrument, WithLatency) so
// cursor helpers can reach the backing view through a wrapper chain.
type unwrapper interface {
	Unwrap() GraphView
}

// SamplePos returns v's sampling-seed cursor, unwrapping wrapper views.
// Views without a cursor (Local: per-call sampling is a pure function of the
// sampler seed and the batch) report 0.
func SamplePos(v GraphView) int64 {
	for v != nil {
		if c, ok := v.(sampleCursor); ok {
			return c.SamplePos()
		}
		w, ok := v.(unwrapper)
		if !ok {
			return 0
		}
		v = w.Unwrap()
	}
	return 0
}

// SetSamplePos restores a cursor previously read with SamplePos, unwrapping
// wrapper views. A no-op for views without a cursor.
func SetSamplePos(v GraphView, pos int64) {
	for v != nil {
		if c, ok := v.(sampleCursor); ok {
			c.SetSamplePos(pos)
			return
		}
		w, ok := v.(unwrapper)
		if !ok {
			return
		}
		v = w.Unwrap()
	}
}

// WithLatency wraps v so every call sleeps d first — an injected per-call
// RPC latency for demonstrating (and benchmarking) how the prefetch
// pipeline overlaps storage waits with compute. FeaturesLabels is one call:
// one sleep, then the inner view's FeaturesLabels or its fallback.
func WithLatency(v GraphView, d time.Duration) GraphView {
	return &delayed{inner: v, d: d}
}

type delayed struct {
	inner GraphView
	d     time.Duration
}

// Unwrap exposes the wrapped view for cursor helpers.
func (v *delayed) Unwrap() GraphView { return v.inner }

func (v *delayed) SampleNeighbors(seeds []graph.VertexID, et graph.EdgeType, fanout int) ([]graph.VertexID, error) {
	time.Sleep(v.d)
	return v.inner.SampleNeighbors(seeds, et, fanout)
}

func (v *delayed) SampleSubgraph(seeds []graph.VertexID, path graph.MetaPath, fanouts []int) ([][]graph.VertexID, error) {
	time.Sleep(v.d)
	return v.inner.SampleSubgraph(seeds, path, fanouts)
}

func (v *delayed) Degrees(nodes []graph.VertexID, et graph.EdgeType) ([]int, error) {
	time.Sleep(v.d)
	return v.inner.Degrees(nodes, et)
}

func (v *delayed) Features(nodes []graph.VertexID, dim int) ([]float32, error) {
	time.Sleep(v.d)
	return v.inner.Features(nodes, dim)
}

func (v *delayed) Labels(nodes []graph.VertexID) ([]int32, error) {
	time.Sleep(v.d)
	return v.inner.Labels(nodes)
}

func (v *delayed) FeaturesLabels(nodes []graph.VertexID, dim int) ([]float32, []int32, error) {
	time.Sleep(v.d)
	return FeaturesLabels(v.inner, nodes, dim)
}

func (v *delayed) Sources(et graph.EdgeType) ([]graph.VertexID, error) {
	time.Sleep(v.d)
	return v.inner.Sources(et)
}
