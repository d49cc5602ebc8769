// Package platogl reimplements the storage and sampling layer of PlatoGL
// (CIKM'22, ref. [24]) — the state-of-the-art dynamic baseline the PlatoD2GL
// paper compares against.
//
// PlatoGL stores topology in a block-based key-value store: a source's
// neighbor list is chunked into fixed-capacity blocks, each addressed by a
// composite ⟨source vertex, block sequence, shard, flags⟩ key ("each key
// consists of various information except the unique identifier"). Weighted
// sampling uses Inverse Transform Sampling over a per-source CSTable of
// prefix sums spanning the *whole* neighbor list (Sec. II-B of the
// PlatoD2GL paper: "it needs to update [the] cumulative sum table ... for
// each source vertex", with n being the source's out-neighbor count).
//
// The two weaknesses PlatoD2GL attacks are modeled as the paper describes
// them:
//
//   - Memory: per-block composite keys and hash-index entries, per-edge
//     locator entries (the key-value indexing the paper calls "huge
//     indexing overhead of numerous key-value pairs"), and fixed-size block
//     slack — a one-edge source still reserves a whole block, which
//     multiplies the footprint on power-law graphs.
//   - Update time: appending a new neighbor is O(1), but an in-place weight
//     change or a deletion rewrites the CSTable suffix — O(degree) — so
//     updates to hot (high-degree) sources are expensive, versus the
//     samtree's O(log n) (Table II).
package platogl

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"platod2gl/internal/cstable"
	"platod2gl/internal/graph"
	"platod2gl/internal/palm"
	"platod2gl/internal/storage"
)

// DefaultBlockCap is the block capacity (edges per block); it mirrors the
// samtree default node size so per-structure comparisons are like-for-like.
const DefaultBlockCap = 256

// blockKey is the composite key-value store key for one block. The extra
// fields beyond the source ID model the metadata PlatoGL bakes into its
// keys.
type blockKey struct {
	src   graph.VertexID
	seq   uint32
	shard uint16
	flags uint16
}

// block is one fixed-capacity chunk of a source's neighbor sequence.
type block struct {
	ids []graph.VertexID
}

// srcMeta is the per-source index: the block count, the global CSTable over
// the whole neighbor sequence (insertion order), and the per-destination
// position index.
type srcMeta struct {
	nblocks uint32
	cs      *cstable.CSTable
	where   map[graph.VertexID]int32 // dst -> global position
}

func (m *srcMeta) degree() int { return m.cs.Len() }

const shardCount = 64

type shard struct {
	mu     sync.RWMutex
	blocks map[blockKey]*block
	meta   map[graph.VertexID]*srcMeta
}

// Store is the PlatoGL block-based key-value topology store, one logical
// store per edge type, sharded by source for concurrency.
type Store struct {
	blockCap int
	relsMu   sync.RWMutex
	rels     map[graph.EdgeType]*[shardCount]shard
	numEdges atomic.Int64
	workers  int
}

var _ storage.TopologyStore = (*Store)(nil)

// Options configure the PlatoGL baseline.
type Options struct {
	// BlockCap is the fixed block capacity; defaults to DefaultBlockCap.
	BlockCap int
	// Workers bounds batch parallelism; 0 means auto.
	Workers int
}

// New returns an empty PlatoGL store.
func New(opt Options) *Store {
	if opt.BlockCap <= 0 {
		opt.BlockCap = DefaultBlockCap
	}
	return &Store{
		blockCap: opt.BlockCap,
		rels:     make(map[graph.EdgeType]*[shardCount]shard),
		workers:  opt.Workers,
	}
}

// Name implements storage.TopologyStore.
func (s *Store) Name() string { return "PlatoGL" }

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
			r[i].blocks = make(map[blockKey]*block)
			r[i].meta = make(map[graph.VertexID]*srcMeta)
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

func keyFor(src graph.VertexID, seq uint32) blockKey {
	return blockKey{
		src:   src,
		seq:   seq,
		shard: uint16(mix(uint64(src)) & (shardCount - 1)),
		flags: uint16(seq & 0x3),
	}
}

// idAt returns the neighbor at global position g of src's sequence.
func (s *Store) idAt(sh *shard, src graph.VertexID, g int) graph.VertexID {
	b := sh.blocks[keyFor(src, uint32(g/s.blockCap))]
	return b.ids[g%s.blockCap]
}

// setIDAt overwrites the neighbor at global position g.
func (s *Store) setIDAt(sh *shard, src graph.VertexID, g int, id graph.VertexID) {
	b := sh.blocks[keyFor(src, uint32(g/s.blockCap))]
	b.ids[g%s.blockCap] = id
}

// addLocked inserts or updates one edge; caller holds the shard lock.
// Reports whether the edge was new.
func (s *Store) addLocked(sh *shard, src, dst graph.VertexID, w float64) bool {
	m := sh.meta[src]
	if m == nil {
		m = &srcMeta{
			cs:    cstable.NewWithCapacity(4),
			where: make(map[graph.VertexID]int32),
		}
		sh.meta[src] = m
	}
	if g, ok := m.where[dst]; ok {
		// In-place update: rewrite the per-source CSTable suffix —
		// O(degree), the cost the PlatoD2GL paper charges PlatoGL with.
		m.cs.Update(int(g), w)
		return false
	}
	// New neighbor: append into the last block (open a fresh fixed-size
	// block when full) and append to the CSTable — O(1).
	g := m.degree()
	if g%s.blockCap == 0 {
		sh.blocks[keyFor(src, m.nblocks)] = &block{
			ids: make([]graph.VertexID, 0, s.blockCap),
		}
		m.nblocks++
	}
	b := sh.blocks[keyFor(src, uint32(g/s.blockCap))]
	b.ids = append(b.ids, dst)
	m.cs.Append(w)
	m.where[dst] = int32(g)
	return true
}

// deleteLocked removes one edge; caller holds the shard lock. The neighbor
// sequence keeps insertion order, so deletion shifts every later element
// (and its locator) left and rewrites the CSTable suffix — O(degree).
func (s *Store) deleteLocked(sh *shard, src, dst graph.VertexID) bool {
	m := sh.meta[src]
	if m == nil {
		return false
	}
	g, ok := m.where[dst]
	if !ok {
		return false
	}
	n := m.degree()
	m.cs.Delete(int(g))
	for k := int(g); k < n-1; k++ {
		next := s.idAt(sh, src, k+1)
		s.setIDAt(sh, src, k, next)
		m.where[next] = int32(k)
	}
	delete(m.where, dst)
	// Shrink the last block; drop it entirely when empty.
	lastSeq := uint32((n - 1) / s.blockCap)
	lb := sh.blocks[keyFor(src, lastSeq)]
	lb.ids = lb.ids[:len(lb.ids)-1]
	if len(lb.ids) == 0 && m.nblocks > 0 {
		delete(sh.blocks, keyFor(src, lastSeq))
		m.nblocks--
	}
	return true
}

// AddEdge implements storage.TopologyStore.
func (s *Store) AddEdge(e graph.Edge) bool {
	r := s.rel(e.Type, true)
	sh := shardFor(r, e.Src)
	sh.mu.Lock()
	isNew := s.addLocked(sh, e.Src, e.Dst, e.Weight)
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
	ok := s.deleteLocked(sh, src, dst)
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
	m := sh.meta[src]
	if m == nil {
		return false
	}
	g, ok := m.where[dst]
	if !ok {
		return false
	}
	m.cs.Update(int(g), w)
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
	m := sh.meta[src]
	if m == nil {
		return 0, false
	}
	g, ok := m.where[dst]
	if !ok {
		return 0, false
	}
	return m.cs.Weight(int(g)), true
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
	if m := sh.meta[src]; m != nil {
		return m.degree()
	}
	return 0
}

// SampleFrontier implements storage.TopologyStore: PlatoGL's block-based
// ITS per source — binary search in the source's CSTable, then a
// block-key lookup to fetch the neighbor from its block. A uniform draw is
// a random global position followed by the block lookup.
func (s *Store) SampleFrontier(srcs []graph.VertexID, et graph.EdgeType, counts []int, uniform bool, rng *rand.Rand, dst []graph.VertexID, got []int) []graph.VertexID {
	r := s.rel(et, false)
	if r == nil {
		clear(got[:len(srcs)])
		return dst
	}
	for i, src := range srcs {
		n := len(dst)
		sh := shardFor(r, src)
		sh.mu.RLock()
		if m := sh.meta[src]; m != nil && m.degree() > 0 {
			deg, total := m.degree(), m.cs.Total()
			for j := 0; j < counts[i]; j++ {
				if uniform {
					dst = append(dst, s.idAt(sh, src, rng.Intn(deg)))
				} else {
					dst = append(dst, s.idAt(sh, src, m.cs.Sample(rng.Float64()*total)))
				}
			}
		}
		sh.mu.RUnlock()
		got[i] = len(dst) - n
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
	m := sh.meta[src]
	if m == nil {
		return nil, nil
	}
	n := m.degree()
	ids := make([]graph.VertexID, 0, n)
	for seq := uint32(0); seq < m.nblocks; seq++ {
		ids = append(ids, sh.blocks[keyFor(src, seq)].ids...)
	}
	return ids, m.cs.Weights()
}

// ApplyBatch implements storage.TopologyStore with the same plan/partition
// harness as PlatoD2GL, so batch-time comparisons isolate the data
// structures.
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
					if s.addLocked(sh, ev.Edge.Src, ev.Edge.Dst, ev.Edge.Weight) {
						added.Add(1)
					}
				case graph.DeleteEdge:
					if s.deleteLocked(sh, ev.Edge.Src, ev.Edge.Dst) {
						removed.Add(1)
					}
				case graph.UpdateWeight:
					m := sh.meta[ev.Edge.Src]
					if m == nil {
						continue
					}
					if gidx, ok := m.where[ev.Edge.Dst]; ok {
						m.cs.Update(int(gidx), ev.Edge.Weight)
					}
				}
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
		for src, m := range sh.meta {
			if m.degree() > 0 {
				out = append(out, src)
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// NumEdges implements storage.TopologyStore.
func (s *Store) NumEdges() int64 { return s.numEdges.Load() }

// mapEntryOverhead approximates Go map bucket cost per entry.
const mapEntryOverhead = 48

// MemoryBytes implements storage.TopologyStore. The accounting mirrors what
// the paper blames PlatoGL for: composite block keys plus hash-index entries
// per block, fixed-size block reservations (slack included), per-edge
// locator entries, and per-source metadata.
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
			for _, b := range sh.blocks {
				total += mapEntryOverhead + 16 /* blockKey */ + 8 /* ptr */
				total += 24 + 8*int64(cap(b.ids))                 // fixed block reservation
			}
			for _, m := range sh.meta {
				total += mapEntryOverhead + 8 + 8 /* key + ptr */
				total += 32 /* srcMeta */ + m.cs.MemoryBytes()
				total += int64(len(m.where)) * (mapEntryOverhead + 12)
			}
			sh.mu.RUnlock()
		}
	}
	return total
}
