// Package aligraph reimplements the graph storage and sampling layer of
// AliGraph (VLDB'19, ref. [38]) as the PlatoD2GL paper characterizes it: a
// hash-by-source *static* store that duplicates topology into auxiliary
// sampling structures.
//
// Each source keeps a dense adjacency (IDs + weights), a per-destination
// index for lookups, and a Vose alias table for O(1) weighted draws. The
// alias table encodes global normalization, so *any* weight change
// invalidates it: dynamic updates mark the source dirty, and the table is
// rebuilt from scratch — O(degree) — before the next sample (or at batch
// end). This is the "expensive memory cost since it has to duplicate the
// graph topology for supporting fast sampling" and the rebuild-on-update
// behavior of static stores (Sec. VIII).
package aligraph

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"platod2gl/internal/alias"
	"platod2gl/internal/graph"
	"platod2gl/internal/palm"
	"platod2gl/internal/storage"
)

// adjacency is one source's duplicated topology: raw edges, a lookup index,
// and the alias sampling table.
type adjacency struct {
	ids     []graph.VertexID
	weights []float64
	index   map[graph.VertexID]int32
	table   *alias.Table // nil when dirty
}

func (a *adjacency) ensureTable() {
	if a.table == nil && len(a.weights) > 0 {
		t, err := alias.New(a.weights)
		if err != nil {
			return // all-zero weights: leave dirty, sampling returns nothing
		}
		a.table = t
	}
}

const shardCount = 64

type shard struct {
	mu  sync.RWMutex
	adj map[graph.VertexID]*adjacency
}

// Store is the AliGraph hash-by-source baseline.
type Store struct {
	relsMu   sync.RWMutex
	rels     map[graph.EdgeType]*[shardCount]shard
	numEdges atomic.Int64
	workers  int
}

var _ storage.TopologyStore = (*Store)(nil)

// Options configure the AliGraph baseline.
type Options struct {
	// Workers bounds batch parallelism; 0 means auto.
	Workers int
}

// New returns an empty AliGraph store.
func New(opt Options) *Store {
	return &Store{rels: make(map[graph.EdgeType]*[shardCount]shard), workers: opt.Workers}
}

// Name implements storage.TopologyStore.
func (s *Store) Name() string { return "AliGraph" }

func (s *Store) rel(et graph.EdgeType, create bool) *[shardCount]shard {
	s.relsMu.RLock()
	r := s.rels[et]
	s.relsMu.RUnlock()
	if r != nil || !create {
		return r
	}
	s.relsMu.Lock()
	defer s.relsMu.Unlock()
	if r = s.rels[et]; r == nil {
		r = new([shardCount]shard)
		for i := range r {
			r[i].adj = make(map[graph.VertexID]*adjacency)
		}
		s.rels[et] = r
	}
	return r
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

func shardFor(r *[shardCount]shard, src graph.VertexID) *shard {
	return &r[mix(uint64(src))&(shardCount-1)]
}

// addLocked inserts/updates one edge and invalidates the alias table.
// rebuild controls whether the table is reconstructed immediately (single
// ops) or deferred (batch).
func (s *Store) addLocked(sh *shard, src, dst graph.VertexID, w float64, rebuild bool) bool {
	a := sh.adj[src]
	if a == nil {
		a = &adjacency{index: make(map[graph.VertexID]int32)}
		sh.adj[src] = a
	}
	isNew := true
	if i, ok := a.index[dst]; ok {
		a.weights[i] = w
		isNew = false
	} else {
		a.index[dst] = int32(len(a.ids))
		a.ids = append(a.ids, dst)
		a.weights = append(a.weights, w)
	}
	a.table = nil // static structure invalidated
	if rebuild {
		a.ensureTable()
	}
	return isNew
}

func (s *Store) deleteLocked(sh *shard, src, dst graph.VertexID, rebuild bool) bool {
	a := sh.adj[src]
	if a == nil {
		return false
	}
	i, ok := a.index[dst]
	if !ok {
		return false
	}
	last := int32(len(a.ids) - 1)
	if i != last {
		a.ids[i] = a.ids[last]
		a.weights[i] = a.weights[last]
		a.index[a.ids[i]] = i
	}
	a.ids = a.ids[:last]
	a.weights = a.weights[:last]
	delete(a.index, dst)
	a.table = nil
	if rebuild {
		a.ensureTable()
	}
	return true
}

// AddEdge implements storage.TopologyStore. The alias table is rebuilt
// immediately — the static store's per-update O(degree) penalty.
func (s *Store) AddEdge(e graph.Edge) bool {
	r := s.rel(e.Type, true)
	sh := shardFor(r, e.Src)
	sh.mu.Lock()
	isNew := s.addLocked(sh, e.Src, e.Dst, e.Weight, true)
	sh.mu.Unlock()
	if isNew {
		s.numEdges.Add(1)
	}
	return isNew
}

// DeleteEdge implements storage.TopologyStore.
func (s *Store) DeleteEdge(src, dst graph.VertexID, et graph.EdgeType) bool {
	r := s.rel(et, false)
	if r == nil {
		return false
	}
	sh := shardFor(r, src)
	sh.mu.Lock()
	ok := s.deleteLocked(sh, src, dst, true)
	sh.mu.Unlock()
	if ok {
		s.numEdges.Add(-1)
	}
	return ok
}

// UpdateWeight implements storage.TopologyStore.
func (s *Store) UpdateWeight(src, dst graph.VertexID, et graph.EdgeType, w float64) bool {
	r := s.rel(et, false)
	if r == nil {
		return false
	}
	sh := shardFor(r, src)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	a := sh.adj[src]
	if a == nil {
		return false
	}
	i, ok := a.index[dst]
	if !ok {
		return false
	}
	a.weights[i] = w
	a.table = nil
	a.ensureTable()
	return true
}

// EdgeWeight implements storage.TopologyStore.
func (s *Store) EdgeWeight(src, dst graph.VertexID, et graph.EdgeType) (float64, bool) {
	r := s.rel(et, false)
	if r == nil {
		return 0, false
	}
	sh := shardFor(r, src)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	a := sh.adj[src]
	if a == nil {
		return 0, false
	}
	i, ok := a.index[dst]
	if !ok {
		return 0, false
	}
	return a.weights[i], true
}

// Degree implements storage.TopologyStore.
func (s *Store) Degree(src graph.VertexID, et graph.EdgeType) int {
	r := s.rel(et, false)
	if r == nil {
		return 0
	}
	sh := shardFor(r, src)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if a := sh.adj[src]; a != nil {
		return len(a.ids)
	}
	return 0
}

// SampleFrontier implements storage.TopologyStore with O(1) alias draws
// per source, rebuilding a source's table first if a dynamic update
// invalidated it. Uniform draws need no table and take the read lock.
func (s *Store) SampleFrontier(srcs []graph.VertexID, et graph.EdgeType, counts []int, uniform bool, rng *rand.Rand, dst []graph.VertexID, got []int) []graph.VertexID {
	r := s.rel(et, false)
	if r == nil {
		clear(got[:len(srcs)])
		return dst
	}
	for i, src := range srcs {
		n := len(dst)
		sh := shardFor(r, src)
		if uniform {
			sh.mu.RLock()
			dst = sh.adj[src].sample(counts[i], true, rng, dst)
			sh.mu.RUnlock()
		} else {
			sh.mu.Lock() // write lock: sampling may rebuild the alias table
			dst = sh.adj[src].sample(counts[i], false, rng, dst)
			sh.mu.Unlock()
		}
		got[i] = len(dst) - n
	}
	return dst
}

// sample appends k draws of a's neighbors to dst, none if a is nil or
// empty, or if weighted draws find no table (all-zero weights). Sec. V
// ("Challenges"): existing systems "need to retrieve all the neighbours of
// a source node ... into memory" before sampling. Model the gather:
// materialize the neighbor list per request, then draw from it in O(1)
// each.
func (a *adjacency) sample(k int, uniform bool, rng *rand.Rand, dst []graph.VertexID) []graph.VertexID {
	if a == nil || len(a.ids) == 0 {
		return dst
	}
	if !uniform {
		a.ensureTable()
		if a.table == nil {
			return dst
		}
	}
	retrieved := make([]graph.VertexID, len(a.ids))
	copy(retrieved, a.ids)
	for i := 0; i < k; i++ {
		if uniform {
			dst = append(dst, retrieved[rng.Intn(len(retrieved))])
		} else {
			dst = append(dst, retrieved[a.table.Sample(rng)])
		}
	}
	return dst
}

// Neighbors implements storage.TopologyStore.
func (s *Store) Neighbors(src graph.VertexID, et graph.EdgeType) ([]graph.VertexID, []float64) {
	r := s.rel(et, false)
	if r == nil {
		return nil, nil
	}
	sh := shardFor(r, src)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	a := sh.adj[src]
	if a == nil {
		return nil, nil
	}
	ids := make([]graph.VertexID, len(a.ids))
	copy(ids, a.ids)
	weights := make([]float64, len(a.weights))
	copy(weights, a.weights)
	return ids, weights
}

// ApplyBatch implements storage.TopologyStore: edits are applied per source
// and every touched source's alias table is rebuilt from scratch once at
// group end — the hash-by-source rebuild the paper attributes to static
// stores under dynamic load.
func (s *Store) ApplyBatch(events []graph.Event) {
	workers := s.workers
	if workers <= 0 {
		workers = palm.DefaultWorkers(len(events))
	}
	var added, removed atomic.Int64
	palm.Run(events, workers, func(groups []palm.Group) {
		for _, g := range groups {
			r := s.rel(g.Type, true)
			sh := shardFor(r, g.Src)
			sh.mu.Lock()
			for _, ev := range g.Events {
				switch ev.Kind {
				case graph.AddEdge:
					if s.addLocked(sh, ev.Edge.Src, ev.Edge.Dst, ev.Edge.Weight, false) {
						added.Add(1)
					}
				case graph.DeleteEdge:
					if s.deleteLocked(sh, ev.Edge.Src, ev.Edge.Dst, false) {
						removed.Add(1)
					}
				case graph.UpdateWeight:
					if a := sh.adj[ev.Edge.Src]; a != nil {
						if i, ok := a.index[ev.Edge.Dst]; ok {
							a.weights[i] = ev.Edge.Weight
							a.table = nil
						}
					}
				}
			}
			// Rebuild the static sampling structure for this source.
			if a := sh.adj[g.Src]; a != nil {
				a.ensureTable()
			}
			sh.mu.Unlock()
		}
	})
	s.numEdges.Add(added.Load() - removed.Load())
}

// Sources implements storage.TopologyStore.
func (s *Store) Sources(et graph.EdgeType) []graph.VertexID {
	r := s.rel(et, false)
	if r == nil {
		return nil
	}
	var out []graph.VertexID
	for i := range r {
		sh := &r[i]
		sh.mu.RLock()
		for src, a := range sh.adj {
			if len(a.ids) > 0 {
				out = append(out, src)
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// NumEdges implements storage.TopologyStore.
func (s *Store) NumEdges() int64 { return s.numEdges.Load() }

const mapEntryOverhead = 48

// MemoryBytes implements storage.TopologyStore: adjacency arrays plus the
// duplicated structures (per-edge index entries and alias tables).
func (s *Store) MemoryBytes() int64 {
	var total int64
	s.relsMu.RLock()
	rels := make([]*[shardCount]shard, 0, len(s.rels))
	for _, r := range s.rels {
		rels = append(rels, r)
	}
	s.relsMu.RUnlock()
	for _, r := range rels {
		for i := range r {
			sh := &r[i]
			sh.mu.RLock()
			for _, a := range sh.adj {
				total += mapEntryOverhead + 16 // source entry
				total += 24 + 8*int64(cap(a.ids))
				total += 24 + 8*int64(cap(a.weights))
				total += int64(len(a.index)) * (mapEntryOverhead + 12)
				if a.table != nil {
					total += a.table.MemoryBytes()
				}
			}
			sh.mu.RUnlock()
		}
	}
	return total
}
