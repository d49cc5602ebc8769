// Package kvstore implements the attribute storage of PlatoD2GL's dynamic
// graph storage layer (Fig. 2): a sharded in-memory key-value store mapping
// vertices to dense float32 feature vectors and integer labels. The paper
// keeps attributes in a conventional key-value store — only the *topology*
// moves to the non-key-value samtree — so this store is deliberately plain.
package kvstore

import (
	"sync"

	"platod2gl/internal/graph"
)

const shardCount = 64

// EdgeKey addresses edge attributes.
type EdgeKey struct {
	Src, Dst graph.VertexID
	Type     graph.EdgeType
}

// vertexAttrs is one vertex's attributes: a feature vector, a label, or
// both. One map entry holds both, so a reader of a row's features and
// label takes one lock and one lookup.
type vertexAttrs struct {
	features    []float32
	label       int32
	hasFeatures bool
	hasLabel    bool
}

type shard struct {
	mu       sync.RWMutex
	vertices map[graph.VertexID]vertexAttrs
	edges    map[EdgeKey][]float32
	// nFeatures counts the vertices holding features (Len).
	nFeatures int
	// digest is the XOR of every entry's checksum (see digest.go), kept
	// current by each mutation under mu. A vertex's features and label are
	// separate entries of the digest.
	digest uint64
}

// Store is a concurrent vertex-attribute store.
type Store struct {
	shards [shardCount]shard
}

// New returns an empty attribute store.
func New() *Store {
	s := &Store{}
	for i := range s.shards {
		s.shards[i].reset()
	}
	return s
}

// reset empties the shard; the caller holds mu or owns the shard.
func (sh *shard) reset() {
	sh.vertices = make(map[graph.VertexID]vertexAttrs)
	sh.edges = make(map[EdgeKey][]float32)
	sh.nFeatures = 0
	sh.digest = 0
}

func (s *Store) shardFor(id graph.VertexID) *shard {
	x := uint64(id)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return &s.shards[x&(shardCount-1)]
}

// SetFeatures stores the feature vector for id. The slice is retained; the
// caller must not mutate it afterwards.
func (s *Store) SetFeatures(id graph.VertexID, f []float32) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	a := sh.vertices[id]
	if a.hasFeatures {
		sh.digest ^= featureSum(id, a.features)
	} else {
		sh.nFeatures++
	}
	a.features, a.hasFeatures = f, true
	sh.vertices[id] = a
	sh.digest ^= featureSum(id, f)
	sh.mu.Unlock()
}

// Features returns the stored feature vector for id (shared, do not mutate).
func (s *Store) Features(id graph.VertexID) ([]float32, bool) {
	a := s.attrs(id)
	return a.features, a.hasFeatures
}

// FeaturesLabel returns id's feature vector (shared, do not mutate) and
// label with one lock and one lookup. A vertex without features yields nil
// and one without a label 0, the rows GatherFeatures and GatherLabels
// report for them.
func (s *Store) FeaturesLabel(id graph.VertexID) ([]float32, int32) {
	a := s.attrs(id)
	return a.features, a.label
}

func (s *Store) attrs(id graph.VertexID) vertexAttrs {
	sh := s.shardFor(id)
	sh.mu.RLock()
	a := sh.vertices[id]
	sh.mu.RUnlock()
	return a
}

// GatherFeatures copies the feature vectors of ids row-by-row into a dense
// matrix of shape (len(ids), dim). Vertices without features produce zero
// rows.
func (s *Store) GatherFeatures(ids []graph.VertexID, dim int) []float32 {
	out := make([]float32, len(ids)*dim)
	for i, id := range ids {
		if f, ok := s.Features(id); ok {
			copy(out[i*dim:(i+1)*dim], f)
		}
	}
	return out
}

// GatherLabels copies the labels of ids into a dense vector. Vertices
// without labels produce 0, matching GatherFeatures' zero-row convention.
func (s *Store) GatherLabels(ids []graph.VertexID) []int32 {
	out := make([]int32, len(ids))
	for i, id := range ids {
		out[i] = s.attrs(id).label
	}
	return out
}

// GatherFeaturesLabels is GatherFeatures and GatherLabels in one pass, one
// lookup per vertex.
func (s *Store) GatherFeaturesLabels(ids []graph.VertexID, dim int) ([]float32, []int32) {
	out, labels := make([]float32, len(ids)*dim), make([]int32, len(ids))
	for i, id := range ids {
		f, l := s.FeaturesLabel(id)
		copy(out[i*dim:(i+1)*dim], f)
		labels[i] = l
	}
	return out, labels
}

// SetLabel stores the class label for id.
func (s *Store) SetLabel(id graph.VertexID, label int32) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	a := sh.vertices[id]
	if a.hasLabel {
		sh.digest ^= labelSum(id, a.label)
	}
	a.label, a.hasLabel = label, true
	sh.vertices[id] = a
	sh.digest ^= labelSum(id, label)
	sh.mu.Unlock()
}

// Label returns the stored label for id.
func (s *Store) Label(id graph.VertexID) (int32, bool) {
	a := s.attrs(id)
	return a.label, a.hasLabel
}

// SetEdgeFeatures stores the feature vector for an edge (Fig. 2's "attributes
// information of nodes or edges"). The slice is retained. Edge attributes are
// sharded by source so they colocate with the source's topology.
func (s *Store) SetEdgeFeatures(k EdgeKey, f []float32) {
	sh := s.shardFor(k.Src)
	sh.mu.Lock()
	if old, ok := sh.edges[k]; ok {
		sh.digest ^= edgeSum(k, old)
	}
	sh.edges[k] = f
	sh.digest ^= edgeSum(k, f)
	sh.mu.Unlock()
}

// EdgeFeatures returns the stored edge feature vector (shared, do not
// mutate).
func (s *Store) EdgeFeatures(k EdgeKey) ([]float32, bool) {
	sh := s.shardFor(k.Src)
	sh.mu.RLock()
	f, ok := sh.edges[k]
	sh.mu.RUnlock()
	return f, ok
}

// DeleteEdgeFeatures removes an edge's attributes (call on edge deletion).
func (s *Store) DeleteEdgeFeatures(k EdgeKey) {
	sh := s.shardFor(k.Src)
	sh.mu.Lock()
	if old, ok := sh.edges[k]; ok {
		sh.digest ^= edgeSum(k, old)
		delete(sh.edges, k)
	}
	sh.mu.Unlock()
}

// DeleteVertex removes all attributes of id.
func (s *Store) DeleteVertex(id graph.VertexID) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	if a, ok := sh.vertices[id]; ok {
		if a.hasFeatures {
			sh.digest ^= featureSum(id, a.features)
			sh.nFeatures--
		}
		if a.hasLabel {
			sh.digest ^= labelSum(id, a.label)
		}
		delete(sh.vertices, id)
	}
	sh.mu.Unlock()
}

// RangeVertices calls fn for every vertex holding features and/or a label,
// until fn returns false. Feature slices are the stored ones (do not
// mutate); hasLabel distinguishes "label 0" from "no label". Iteration is
// per-shard consistent but not a global snapshot — concurrent writes may or
// may not be observed. The shard-migration path uses this to enumerate
// attribute state, which the plain map-based store never needed to expose.
func (s *Store) RangeVertices(fn func(id graph.VertexID, features []float32, label int32, hasLabel bool) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		ids := make([]graph.VertexID, 0, len(sh.vertices))
		for id := range sh.vertices {
			ids = append(ids, id)
		}
		sh.mu.RUnlock()
		for _, id := range ids {
			sh.mu.RLock()
			a := sh.vertices[id]
			sh.mu.RUnlock()
			if a.features == nil && !a.hasLabel {
				continue // deleted between the scans
			}
			if !fn(id, a.features, a.label, a.hasLabel) {
				return
			}
		}
	}
}

// RangeEdges calls fn for every edge holding features, until fn returns
// false. The same consistency caveats as RangeVertices apply.
func (s *Store) RangeEdges(fn func(k EdgeKey, features []float32) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		keys := make([]EdgeKey, 0, len(sh.edges))
		for k := range sh.edges {
			keys = append(keys, k)
		}
		sh.mu.RUnlock()
		for _, k := range keys {
			sh.mu.RLock()
			f, ok := sh.edges[k]
			sh.mu.RUnlock()
			if !ok {
				continue
			}
			if !fn(k, f) {
				return
			}
		}
	}
}

// Len returns the number of vertices holding features.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += sh.nFeatures
		sh.mu.RUnlock()
	}
	return n
}

// MemoryBytes returns the approximate structural footprint: per-entry map
// overhead plus feature payloads.
func (s *Store) MemoryBytes() int64 {
	const mapEntryOverhead = 48 // bucket slot + key + value header, amortized
	var total int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, a := range sh.vertices {
			total += mapEntryOverhead + int64(4*cap(a.features))
		}
		for _, f := range sh.edges {
			total += mapEntryOverhead + 17 + int64(4*cap(f))
		}
		sh.mu.RUnlock()
	}
	return total
}
