// Package storage implements PlatoD2GL's dynamic graph storage layer
// (Sec. III, Fig. 2): per-relation topology held in samtrees reachable
// through a concurrent cuckoo hashmap, with batch latch-free updates and
// weighted neighbor sampling.
//
// It also defines the TopologyStore interface shared with the baseline
// systems (PlatoGL's block-based key-value store and AliGraph's static
// hash-by-source store) so the benchmark harness can drive all three through
// one API.
package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"platod2gl/internal/core"
	"platod2gl/internal/cuckoo"
	"platod2gl/internal/graph"
	"platod2gl/internal/palm"
	"platod2gl/internal/prefetch"
)

// TopologyStore is the storage-engine contract: dynamic topology updates
// plus weighted neighbor access, per heterogeneous relation.
type TopologyStore interface {
	// Name identifies the engine in benchmark output.
	Name() string
	// AddEdge inserts e, or updates its weight if present. Reports whether
	// the edge was new.
	AddEdge(e graph.Edge) bool
	// DeleteEdge removes the edge; reports whether it existed.
	DeleteEdge(src, dst graph.VertexID, et graph.EdgeType) bool
	// UpdateWeight changes an existing edge's weight; reports whether the
	// edge existed.
	UpdateWeight(src, dst graph.VertexID, et graph.EdgeType, w float64) bool
	// EdgeWeight returns the weight of the edge, if present.
	EdgeWeight(src, dst graph.VertexID, et graph.EdgeType) (float64, bool)
	// Degree returns the out-degree of src under relation et.
	Degree(src graph.VertexID, et graph.EdgeType) int
	// SampleFrontier is the store's one sampling call. For each i in order
	// it appends counts[i] samples of srcs[i]'s out-neighbors under et to
	// dst, with replacement, and sets got[i] to how many it appended, 0 or
	// counts[i]. A draw picks a neighbor with probability proportional to
	// its edge weight, or 1/degree when uniform. The result and the rng's
	// state after it are bit-identical to the one-source loop: one call
	// per source, srcs[i:i+1], in order. counts and got hold at least
	// len(srcs) elements.
	SampleFrontier(srcs []graph.VertexID, et graph.EdgeType, counts []int, uniform bool, rng *rand.Rand, dst []graph.VertexID, got []int) []graph.VertexID
	// Neighbors returns all out-neighbors and weights of src under et.
	Neighbors(src graph.VertexID, et graph.EdgeType) ([]graph.VertexID, []float64)
	// ApplyBatch applies a batch of update events (the dynamic-update entry
	// point; events may be reordered).
	ApplyBatch(events []graph.Event)
	// Sources returns all source vertices that have out-edges under et.
	Sources(et graph.EdgeType) []graph.VertexID
	// NumEdges returns the current edge count across all relations.
	NumEdges() int64
	// MemoryBytes returns the structural memory footprint.
	MemoryBytes() int64
}

// Options configure a DynamicStore.
type Options struct {
	// Tree configures the samtrees (capacity, α, compression, counters).
	Tree core.Options
	// Workers bounds batch-update parallelism; 0 means auto.
	Workers int
	// Metrics, if set, receives per-operation counters and latency
	// histograms (insert/delete/sample/batch). nil disables with only a
	// branch per operation.
	Metrics *Metrics
}

// treeEntry pairs a samtree with its writer lock. Batch updates bypass the
// lock's contention entirely (one worker per tree); the lock serializes
// stray single-edge updates against concurrent readers. The Tree is held by
// value, so an entry and its tree are one heap object.
type treeEntry struct {
	mu   sync.RWMutex
	tree core.Tree
}

// relation is the per-edge-type topology: source vertex → samtree.
type relation struct {
	et    graph.EdgeType
	trees *cuckoo.Map[*treeEntry]
}

// DynamicStore is the PlatoD2GL topology store.
type DynamicStore struct {
	opt Options
	// rels holds one relation per edge type. Readers load it without a
	// lock; relsMu only serializes relation creation against Reset.
	rels     [256]atomic.Pointer[relation]
	relsMu   sync.Mutex
	numEdges atomic.Int64
}

var _ TopologyStore = (*DynamicStore)(nil)

// NewDynamicStore returns an empty store.
func NewDynamicStore(opt Options) *DynamicStore {
	return &DynamicStore{opt: opt}
}

// Reset drops every relation and zeroes the edge count, returning the store
// to its freshly constructed state. Repair paths use it before rebuilding
// from a healthy peer: Load and replay merge rather than replace, so stale
// local edges the peer deleted must be discarded first. Callers must
// quiesce writers (e.g. via the cluster service's pause) — concurrent
// updates during Reset are lost or land in the fresh state unpredictably.
func (s *DynamicStore) Reset() {
	s.relsMu.Lock()
	for i := range s.rels {
		s.rels[i].Store(nil)
	}
	s.relsMu.Unlock()
	s.numEdges.Store(0)
}

// Name implements TopologyStore.
func (s *DynamicStore) Name() string {
	if s.opt.Tree.Compress {
		return "PlatoD2GL"
	}
	return "PlatoD2GL(w/o CP)"
}

// Counters returns the shared samtree operation counters, if configured.
func (s *DynamicStore) Counters() *core.Counters { return s.opt.Tree.Counters }

func (s *DynamicStore) rel(et graph.EdgeType, create bool) *relation {
	if r := s.rels[et].Load(); r != nil || !create {
		return r
	}
	s.relsMu.Lock()
	defer s.relsMu.Unlock()
	r := s.rels[et].Load()
	if r == nil {
		r = &relation{et: et, trees: cuckoo.New[*treeEntry]()}
		s.rels[et].Store(r)
	}
	return r
}

// relations lists the relations present, ordered by edge type.
func (s *DynamicStore) relations() []*relation {
	var out []*relation
	for i := range s.rels {
		if r := s.rels[i].Load(); r != nil {
			out = append(out, r)
		}
	}
	return out
}

func (s *DynamicStore) entry(src graph.VertexID, et graph.EdgeType, create bool) *treeEntry {
	r := s.rel(et, create)
	if r == nil {
		return nil
	}
	if !create {
		e, _ := r.trees.Get(uint64(src))
		return e
	}
	e, _ := r.trees.GetOrCreate(uint64(src), func() *treeEntry {
		return newEntry(s.opt.Tree)
	})
	return e
}

func newEntry(opt core.Options) *treeEntry {
	return &treeEntry{tree: core.MakeTree(opt)}
}

// AddEdge implements TopologyStore.
func (s *DynamicStore) AddEdge(e graph.Edge) bool {
	start := s.opt.Metrics.startTimer()
	ent := s.entry(e.Src, e.Type, true)
	ent.mu.Lock()
	isNew := ent.tree.Insert(uint64(e.Dst), e.Weight)
	ent.mu.Unlock()
	if isNew {
		s.numEdges.Add(1)
	}
	s.opt.Metrics.observeInsert(start)
	return isNew
}

// DeleteEdge implements TopologyStore.
func (s *DynamicStore) DeleteEdge(src, dst graph.VertexID, et graph.EdgeType) bool {
	start := s.opt.Metrics.startTimer()
	ent := s.entry(src, et, false)
	if ent == nil {
		return false
	}
	ent.mu.Lock()
	ok := ent.tree.Delete(uint64(dst))
	ent.mu.Unlock()
	if ok {
		s.numEdges.Add(-1)
	}
	s.opt.Metrics.observeDelete(start)
	return ok
}

// UpdateWeight implements TopologyStore.
func (s *DynamicStore) UpdateWeight(src, dst graph.VertexID, et graph.EdgeType, w float64) bool {
	ent := s.entry(src, et, false)
	if ent == nil {
		return false
	}
	ent.mu.Lock()
	ok := ent.tree.UpdateWeight(uint64(dst), w)
	ent.mu.Unlock()
	return ok
}

// EdgeWeight implements TopologyStore.
func (s *DynamicStore) EdgeWeight(src, dst graph.VertexID, et graph.EdgeType) (float64, bool) {
	ent := s.entry(src, et, false)
	if ent == nil {
		return 0, false
	}
	ent.mu.RLock()
	w, ok := ent.tree.Weight(uint64(dst))
	ent.mu.RUnlock()
	return w, ok
}

// Degree implements TopologyStore.
func (s *DynamicStore) Degree(src graph.VertexID, et graph.EdgeType) int {
	ent := s.entry(src, et, false)
	if ent == nil {
		return 0
	}
	ent.mu.RLock()
	n := ent.tree.Len()
	ent.mu.RUnlock()
	return n
}

// SampleNeighbors draws k weighted samples (with replacement) of src's
// out-neighbors under et, appending to dst: the combined ITS-over-internal /
// FTS-at-leaf descent of Sec. V-C, batched so the tree total and the leaf
// search are shared by up to core.SampleBatch draws. It is SampleFrontier
// for one source, written out as the reference the frontier is tested
// against.
func (s *DynamicStore) SampleNeighbors(src graph.VertexID, et graph.EdgeType, k int, rng *rand.Rand, dst []graph.VertexID) []graph.VertexID {
	start := s.opt.Metrics.startTimer()
	ent := s.entry(src, et, false)
	if ent == nil {
		return dst
	}
	ent.mu.RLock()
	dst = core.AppendSamples(&ent.tree, rng, k, dst)
	ent.mu.RUnlock()
	s.opt.Metrics.observeSample(start)
	return dst
}

// SampleNeighborsUniform is SampleNeighbors with unweighted draws (each
// neighbor with probability 1/degree), through the samtree's count-guided
// uniform descent.
func (s *DynamicStore) SampleNeighborsUniform(src graph.VertexID, et graph.EdgeType, k int, rng *rand.Rand, dst []graph.VertexID) []graph.VertexID {
	start := s.opt.Metrics.startTimer()
	ent := s.entry(src, et, false)
	if ent == nil {
		return dst
	}
	ent.mu.RLock()
	dst = core.AppendUniform(&ent.tree, rng, k, dst)
	ent.mu.RUnlock()
	s.opt.Metrics.observeSample(start)
	return dst
}

// SampleFrontier implements TopologyStore with the apply loop's staged
// prefetch (see applyGroups): while it samples source i it has started
// loading the cuckoo buckets of source i+2·lookahead, the entry of
// i+lookahead, the root of i+lookahead/2 and the leaf arrays of
// i+lookahead/4, so the first-touch misses of one tree overlap the draws
// from the others. Prefetching draws no randomness, which keeps the result
// that of the one-source loop.
func (s *DynamicStore) SampleFrontier(srcs []graph.VertexID, et graph.EdgeType, counts []int, uniform bool, rng *rand.Rand, dst []graph.VertexID, got []int) []graph.VertexID {
	r := s.rel(et, false)
	if r == nil {
		clear(got[:len(srcs)])
		return dst
	}
	var ring [2 * lookahead]*treeEntry
	const mask = len(ring) - 1
	for i := -2 * lookahead; i < len(srcs); i++ {
		if j := i + 2*lookahead; j < len(srcs) {
			r.trees.Prefetch(uint64(srcs[j]))
		}
		if j := i + lookahead; j >= 0 && j < len(srcs) {
			ent, _ := r.trees.Get(uint64(srcs[j]))
			if ent != nil {
				prefetch.Object(unsafe.Pointer(ent), unsafe.Sizeof(*ent))
			}
			ring[j&mask] = ent
		}
		if j := i + lookahead/2; j >= 0 && j < len(srcs) {
			if ent := ring[j&mask]; ent != nil {
				ent.mu.RLock()
				ent.tree.Prefetch()
				ent.mu.RUnlock()
			}
		}
		if j := i + lookahead/4; j >= 0 && j < len(srcs) {
			if ent := ring[j&mask]; ent != nil {
				ent.mu.RLock()
				ent.tree.PrefetchLeaf()
				ent.mu.RUnlock()
			}
		}
		if i < 0 {
			continue
		}
		ent := ring[i&mask]
		if ent == nil {
			got[i] = 0
			continue
		}
		start := s.opt.Metrics.startTimer()
		n := len(dst)
		ent.mu.RLock()
		if uniform {
			dst = core.AppendUniform(&ent.tree, rng, counts[i], dst)
		} else {
			dst = core.AppendSamples(&ent.tree, rng, counts[i], dst)
		}
		ent.mu.RUnlock()
		got[i] = len(dst) - n
		s.opt.Metrics.observeSample(start)
	}
	return dst
}

// Neighbors implements TopologyStore.
func (s *DynamicStore) Neighbors(src graph.VertexID, et graph.EdgeType) ([]graph.VertexID, []float64) {
	ent := s.entry(src, et, false)
	if ent == nil {
		return nil, nil
	}
	ent.mu.RLock()
	ids, weights := ent.tree.Neighbors()
	ent.mu.RUnlock()
	out := make([]graph.VertexID, len(ids))
	for i, id := range ids {
		out[i] = graph.VertexID(id)
	}
	return out, weights
}

// NeighborsInRange returns src's out-neighbors with lo <= id <= hi (an
// ordered samtree range scan; only intersecting leaves are visited).
func (s *DynamicStore) NeighborsInRange(src graph.VertexID, et graph.EdgeType, lo, hi graph.VertexID) ([]graph.VertexID, []float64) {
	ent := s.entry(src, et, false)
	if ent == nil {
		return nil, nil
	}
	ent.mu.RLock()
	rawIDs, weights := ent.tree.RangeNeighbors(uint64(lo), uint64(hi))
	ent.mu.RUnlock()
	ids := make([]graph.VertexID, len(rawIDs))
	for i, id := range rawIDs {
		ids[i] = graph.VertexID(id)
	}
	return ids, weights
}

// ApplyBatch implements TopologyStore using the PALM-style batch mechanism:
// events are grouped per samtree (each group in destination order), groups
// are sharded across workers, and each tree is mutated latch-free by its
// single owner. A worker prefetches the groups ahead of the one it applies,
// so the cache misses of one tree overlap the work on the others.
func (s *DynamicStore) ApplyBatch(events []graph.Event) {
	start := s.opt.Metrics.startTimer()
	workers := s.opt.Workers
	if workers <= 0 {
		workers = palm.DefaultWorkers(len(events))
	}
	b := batchPool.Get().(*batch)
	b.s = s
	b.ops = slices.Grow(b.ops[:0], len(events))[:len(events)]
	b.added.Store(0)
	b.removed.Store(0)
	palm.Run(events, workers, b.apply)
	s.numEdges.Add(b.added.Load() - b.removed.Load())
	b.s = nil
	batchPool.Put(b)
	s.opt.Metrics.observeBatch(start, len(events))
}

// batch is the reusable state of one ApplyBatch: the tree ops of the whole
// batch, cut per group at the group's Start, and the edge-count deltas.
type batch struct {
	s              *DynamicStore
	ops            []core.Op
	added, removed atomic.Int64
	// apply is applyGroups bound once, so passing it to palm.Run does not
	// allocate a closure per batch.
	apply func([]palm.Group)
}

var batchPool = sync.Pool{New: func() any {
	b := new(batch)
	b.apply = b.applyGroups
	return b
}}

// lookahead is how many groups ahead of the one it applies a worker
// resolves the tree entry. Each group costs a chain of dependent cache
// misses — cuckoo bucket, entry, root node, leaf arrays — so the loop starts
// each link a few groups before it is needed: the buckets at 2·lookahead,
// the entry at lookahead, the root at lookahead/2 and the leaf arrays at
// lookahead/4. A power of two.
const lookahead = 8

// applyGroups applies one worker's groups in order, prefetching ahead. The
// entries resolved but not yet applied wait in a ring on the stack.
func (b *batch) applyGroups(groups []palm.Group) {
	s := b.s
	var ring [2 * lookahead]*treeEntry
	const mask = len(ring) - 1
	for i := -2 * lookahead; i < len(groups); i++ {
		if j := i + 2*lookahead; j < len(groups) {
			g := &groups[j]
			s.rel(g.Type, true).trees.Prefetch(uint64(g.Src))
		}
		if j := i + lookahead; j >= 0 && j < len(groups) {
			ent := s.entry(groups[j].Src, groups[j].Type, true)
			prefetch.Object(unsafe.Pointer(ent), unsafe.Sizeof(*ent))
			ring[j&mask] = ent
		}
		if j := i + lookahead/2; j >= 0 && j < len(groups) {
			ent := ring[j&mask]
			ent.mu.RLock()
			ent.tree.Prefetch()
			ent.mu.RUnlock()
		}
		if j := i + lookahead/4; j >= 0 && j < len(groups) {
			ent := ring[j&mask]
			ent.mu.RLock()
			ent.tree.PrefetchLeaf()
			ent.mu.RUnlock()
		}
		if i >= 0 {
			b.applyGroup(&groups[i], ring[i&mask])
		}
	}
}

// applyGroup translates one group into tree ops and applies them to ent's
// tree with the intra-tree batch path (ops in ID order reuse root-to-leaf
// searches).
func (b *batch) applyGroup(g *palm.Group, ent *treeEntry) {
	ops := b.ops[g.Start : g.Start+len(g.Events)]
	for i, ev := range g.Events {
		op := core.Op{ID: uint64(ev.Edge.Dst), Weight: ev.Edge.Weight}
		switch ev.Kind {
		case graph.DeleteEdge:
			op.Kind = core.OpDelete
		case graph.UpdateWeight:
			op.Kind = core.OpUpdate
		default:
			op.Kind = core.OpInsert
		}
		ops[i] = op
	}
	ent.mu.Lock()
	a, r := ent.tree.ApplyBatch(ops)
	ent.mu.Unlock()
	b.added.Add(int64(a))
	b.removed.Add(int64(r))
}

// Sources implements TopologyStore.
func (s *DynamicStore) Sources(et graph.EdgeType) []graph.VertexID {
	r := s.rel(et, false)
	if r == nil {
		return nil
	}
	keys := r.trees.Keys()
	out := make([]graph.VertexID, len(keys))
	for i, k := range keys {
		out[i] = graph.VertexID(k)
	}
	return out
}

// NumEdges implements TopologyStore.
func (s *DynamicStore) NumEdges() int64 { return s.numEdges.Load() }

// MemoryBytes implements TopologyStore: the cuckoo index plus every samtree.
func (s *DynamicStore) MemoryBytes() int64 {
	var total int64
	for _, r := range s.relations() {
		total += r.trees.MemoryBytes(8) // 8-byte tree pointer per slot
		r.trees.Range(func(_ uint64, ent *treeEntry) bool {
			ent.mu.RLock()
			total += ent.tree.MemoryBytes() + 32 // entry struct + lock
			ent.mu.RUnlock()
			return true
		})
	}
	return total
}

// CheckInvariants validates every samtree with core.Tree.CheckInvariants
// (sub-tree weight sums, routing keys, sizes) and checks that NumEdges
// equals the edges the trees hold. Writers must be quiescent.
func (s *DynamicStore) CheckInvariants() error {
	var total int64
	var err error
	for _, r := range s.relations() {
		r.trees.Range(func(src uint64, ent *treeEntry) bool {
			ent.mu.RLock()
			defer ent.mu.RUnlock()
			if err = ent.tree.CheckInvariants(); err != nil {
				err = fmt.Errorf("storage: relation %d source %d: %w", r.et, src, err)
				return false
			}
			total += int64(ent.tree.Len())
			return true
		})
		if err != nil {
			return err
		}
	}
	if n := s.NumEdges(); n != total {
		return fmt.Errorf("storage: NumEdges %d but the samtrees hold %d edges", n, total)
	}
	return nil
}

// TreeStats summarizes the samtree population (used by the benchmark
// harness's Table V instrumentation).
type TreeStats struct {
	Trees     int
	MaxHeight int
	SumHeight int64
}

// RelationStats summarizes one relation's topology.
type RelationStats struct {
	Type       graph.EdgeType
	Sources    int
	Edges      int64
	MaxDegree  int
	MeanDegree float64
	MaxHeight  int
}

// RelationStats walks one relation and summarizes its population.
func (s *DynamicStore) RelationStats(et graph.EdgeType) RelationStats {
	st := RelationStats{Type: et}
	r := s.rel(et, false)
	if r == nil {
		return st
	}
	r.trees.Range(func(_ uint64, ent *treeEntry) bool {
		ent.mu.RLock()
		deg := ent.tree.Len()
		h := ent.tree.Height()
		ent.mu.RUnlock()
		if deg == 0 {
			return true
		}
		st.Sources++
		st.Edges += int64(deg)
		if deg > st.MaxDegree {
			st.MaxDegree = deg
		}
		if h > st.MaxHeight {
			st.MaxHeight = h
		}
		return true
	})
	if st.Sources > 0 {
		st.MeanDegree = float64(st.Edges) / float64(st.Sources)
	}
	return st
}

// AllStats summarizes every relation present in the store, ordered by edge
// type.
func (s *DynamicStore) AllStats() []RelationStats {
	rels := s.relations()
	out := make([]RelationStats, 0, len(rels))
	for _, r := range rels {
		out = append(out, s.RelationStats(r.et))
	}
	return out
}

// Stats walks all samtrees of a relation and reports population statistics.
func (s *DynamicStore) Stats(et graph.EdgeType) TreeStats {
	var st TreeStats
	r := s.rel(et, false)
	if r == nil {
		return st
	}
	r.trees.Range(func(_ uint64, ent *treeEntry) bool {
		ent.mu.RLock()
		h := ent.tree.Height()
		ent.mu.RUnlock()
		st.Trees++
		st.SumHeight += int64(h)
		if h > st.MaxHeight {
			st.MaxHeight = h
		}
		return true
	})
	return st
}
