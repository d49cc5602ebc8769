// Package ann provides the in-process approximate-nearest-neighbor index
// behind the serving tier's k-NN retrieval: a Hierarchical Navigable Small
// World graph (Malkov & Yashunin) over the embeddings the inference engine
// produces. The serving workload is "embed this user, return its top-k
// similar items" under heavy concurrent traffic, so the index is built for
// exactly that shape:
//
//   - Search takes a read lock and walks an append-mostly node arena —
//     concurrent queries never block each other; mutations (insert, delete,
//     compact) take the write lock.
//   - The beam search keeps its ef best results in a max-heap, so each
//     candidate costs O(log ef), and takes its visit marks, frontier and
//     result heap from a pool of visit sets: each concurrent search holds
//     its own, and a search allocates nothing but its returned results.
//   - The graph is dynamic (the paper's setting): vertices appear, their
//     embeddings go stale as edges stream in, and the refresher re-embeds
//     them. Insert with an existing ID is therefore an upsert — the old node
//     is tombstoned and a fresh one linked in — and Delete tombstones.
//     Tombstoned nodes keep routing searches (removing their links would
//     sever the small-world graph) but are never returned; Compact rebuilds
//     the arena from the live set once tombstones pass a configurable share.
//   - Levels come from a deterministic generator seeded per (Config.Seed,
//     ID), not a shared RNG: the same ID always lands on the same level
//     regardless of insertion order or interleaving, so tests and the bench
//     gate see reproducible graphs.
//   - Every vector lives in one arena, Index.vecs, node ref's at ref*Dim, so
//     a search reads its neighbours' vectors from one slice instead of
//     chasing a pointer per node.
//
// Distance is squared L2. The inference engine L2-normalizes embeddings, so
// ranking is equivalent to cosine similarity on its output. On amd64 hosts
// with AVX2 an assembly kernel computes it (sqdist_amd64.s); elsewhere the
// pure-Go sqDistGo does, with the same eight-lane summation order, so both
// paths give bit-identical distances and so the same graph and results.
package ann

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// Config tunes an Index. Zero values take the documented defaults.
type Config struct {
	// Dim is the embedding dimensionality. Required.
	Dim int
	// M is the per-node link budget on upper levels (level 0 gets 2M).
	// Default 16.
	M int
	// EfConstruction is the candidate-list width while linking an insert.
	// Default 200.
	EfConstruction int
	// EfSearch is the candidate-list width during Search (raised to k when
	// k is larger). Default 64.
	EfSearch int
	// Seed drives the deterministic level generator.
	Seed int64
	// MaxTombstoneShare triggers an automatic Compact when tombstoned nodes
	// exceed this share of the arena. <= 0 means 0.5.
	MaxTombstoneShare float64
	// Metrics receives insert/delete/search/compaction counters. nil: a
	// private instance.
	Metrics *Metrics
}

func (c Config) withDefaults() Config {
	if c.M <= 0 {
		c.M = 16
	}
	if c.EfConstruction <= 0 {
		c.EfConstruction = 200
	}
	if c.EfSearch <= 0 {
		c.EfSearch = 64
	}
	if c.MaxTombstoneShare <= 0 {
		c.MaxTombstoneShare = 0.5
	}
	if c.Metrics == nil {
		c.Metrics = &Metrics{}
	}
	return c
}

// Result is one search hit.
type Result struct {
	ID   uint64
	Dist float32 // squared L2 distance to the query
}

// node is one arena entry; its vector is Index.vec(ref). links[l] holds the
// neighbor arena offsets at level l; a dead node keeps its links (routing)
// but is never returned.
type node struct {
	id    uint64
	links [][]uint32
	dead  bool
}

// Index is a thread-safe HNSW graph. The zero value is not usable — call
// New.
type Index struct {
	mu  sync.RWMutex
	cfg Config
	mL  float64

	nodes      []node
	vecs       []float32 // node ref's vector is vecs[ref*Dim:][:Dim]
	byID       map[uint64]uint32
	entry      int32 // arena offset of the entry point, -1 when empty
	maxLevel   int
	tombstones int

	visits   sync.Pool // of *visitSet, one per in-flight search or insert
	pruneBuf []cand    // shrinkLinks' candidates; guarded by the write lock
}

// New returns an empty index for cfg.Dim-dimensional vectors.
func New(cfg Config) (*Index, error) {
	cfg = cfg.withDefaults()
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("ann: Config.Dim must be positive, got %d", cfg.Dim)
	}
	return &Index{
		cfg:    cfg,
		mL:     1 / math.Log(float64(cfg.M)),
		byID:   make(map[uint64]uint32),
		entry:  -1,
		visits: sync.Pool{New: func() any { return new(visitSet) }},
	}, nil
}

// splitmix64 is the level generator's bit mixer: a full-avalanche hash so
// consecutive IDs land on independent levels.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// levelFor draws the node's level from the standard exponential distribution
// (floor(-ln(U) * mL)), with U derived from (seed, id) so the level is a
// pure function of the ID — insertion order never changes the graph shape.
func (ix *Index) levelFor(id uint64) int {
	u := splitmix64(uint64(ix.cfg.Seed) ^ splitmix64(id))
	// Top 53 bits to a float in (0, 1]; the +1 keeps u away from 0 so the
	// log stays finite.
	f := (float64(u>>11) + 1) / (1 << 53)
	l := int(-math.Log(f) * ix.mL)
	const maxLevel = 30
	if l > maxLevel {
		l = maxLevel
	}
	return l
}

// vec returns node ref's vector, the index's own storage.
func (ix *Index) vec(ref uint32) []float32 {
	d := ix.cfg.Dim
	o := int(ref) * d
	return ix.vecs[o : o+d : o+d]
}

// cand is one (node, distance) pair in a search frontier.
type cand struct {
	ref  uint32
	dist float32
}

// candHeap is a min-heap by distance (closest first) over cands, inlined
// rather than container/heap to keep the search hot path allocation-free.
type candHeap []cand

func (h *candHeap) push(c cand) {
	*h = append(*h, c)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p].dist <= (*h)[i].dist {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *candHeap) pop() cand {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && (*h)[l].dist < (*h)[small].dist {
			small = l
		}
		if r < n && (*h)[r].dist < (*h)[small].dist {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return top
}

// byDist orders cands closest first.
func byDist(a, b cand) int {
	switch {
	case a.dist < b.dist:
		return -1
	case a.dist > b.dist:
		return 1
	}
	return 0
}

// maxHeap is a max-heap by distance (farthest first): a beam search's ef best
// results, whose root is the worst kept result and the one to evict.
type maxHeap []cand

func (h *maxHeap) push(c cand) {
	*h = append(*h, c)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p].dist >= (*h)[i].dist {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

// replaceTop evicts the farthest result in favour of c.
func (h maxHeap) replaceTop(c cand) {
	h[0] = c
	n := len(h)
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && h[l].dist > h[big].dist {
			big = l
		}
		if r < n && h[r].dist > h[big].dist {
			big = r
		}
		if big == i {
			break
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// visitSet is one search's working state: visit marks, the frontier and the
// result heap. A mark equal to the current epoch means visited, so starting a
// layer search is an epoch bump, not a pass over the arena. Sets come from
// the Index's pool; concurrent searches each hold their own.
type visitSet struct {
	marks    []uint32
	epoch    uint32
	frontier candHeap
	best     maxHeap
}

// next readies vs for a layer search over an arena of n nodes and returns
// the search's epoch.
func (vs *visitSet) next(n int) uint32 {
	if len(vs.marks) < n {
		vs.marks = append(vs.marks, make([]uint32, n-len(vs.marks))...)
	}
	vs.epoch++
	if vs.epoch == 0 {
		// Marks from 2^32 searches ago would read as visited.
		clear(vs.marks)
		vs.epoch = 1
	}
	return vs.epoch
}

// greedyDescend walks one level greedily from ep toward q, returning the
// closest node found. Used on the levels above the search/insert target.
func (ix *Index) greedyDescend(q []float32, ep uint32, level int) uint32 {
	cur := ep
	curDist := sqDist(q, ix.vec(cur))
	for {
		improved := false
		for _, nb := range ix.nodes[cur].links[level] {
			if d := sqDist(q, ix.vec(nb)); d < curDist {
				cur, curDist = nb, d
				improved = true
			}
		}
		if !improved {
			return cur
		}
	}
}

// searchLayer is the best-first beam search of the paper (Algorithm 2):
// expand the closest unexpanded candidate until the frontier cannot improve
// the worst of the ef best found. Tombstoned nodes participate (routing) and
// are filtered by the caller. The returned results, in heap order, live in
// vs and are valid until its next search.
func (ix *Index) searchLayer(q []float32, ep uint32, ef, level int, vs *visitSet) []cand {
	epoch := vs.next(len(ix.nodes))
	visited := vs.marks
	frontier, best := vs.frontier[:0], vs.best[:0]
	d0 := sqDist(q, ix.vec(ep))
	frontier.push(cand{ep, d0})
	visited[ep] = epoch
	best.push(cand{ep, d0})
	for len(frontier) > 0 {
		c := frontier.pop()
		if c.dist > best[0].dist && len(best) >= ef {
			break
		}
		for _, nb := range ix.nodes[c.ref].links[level] {
			if visited[nb] == epoch {
				continue
			}
			visited[nb] = epoch
			d := sqDist(q, ix.vec(nb))
			if len(best) < ef {
				best.push(cand{nb, d})
				frontier.push(cand{nb, d})
			} else if d < best[0].dist {
				best.replaceTop(cand{nb, d})
				frontier.push(cand{nb, d})
			}
		}
	}
	vs.frontier, vs.best = frontier, best
	return best
}

// selectNeighbors applies the paper's heuristic pruning: walk candidates
// closest-first and keep one only if it is closer to the query than to every
// neighbor already kept. This spreads links across clusters instead of
// packing them into the nearest one, which is what keeps recall high on
// clustered embeddings. It sorts cands in place, closest first.
func (ix *Index) selectNeighbors(cands []cand, m int) []uint32 {
	slices.SortFunc(cands, byDist)
	out := make([]uint32, 0, m)
	for _, c := range cands {
		if len(out) >= m {
			break
		}
		keep := true
		for _, sel := range out {
			if sqDist(ix.vec(c.ref), ix.vec(sel)) < c.dist {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, c.ref)
		}
	}
	// Backfill with the closest rejected candidates so nodes keep a full
	// link budget even in degenerate geometries.
	for _, c := range cands {
		if len(out) >= m {
			break
		}
		dup := false
		for _, sel := range out {
			if sel == c.ref {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, c.ref)
		}
	}
	return out
}

// maxLinks is the per-level link cap: 2M on the ground level, M above.
func (ix *Index) maxLinks(level int) int {
	if level == 0 {
		return 2 * ix.cfg.M
	}
	return ix.cfg.M
}

// shrinkLinks re-prunes a node's level links to the cap after a new
// bidirectional edge pushed it over.
func (ix *Index) shrinkLinks(ref uint32, level int) {
	nd := &ix.nodes[ref]
	limit := ix.maxLinks(level)
	if len(nd.links[level]) <= limit {
		return
	}
	v := ix.vec(ref)
	cands := ix.pruneBuf[:0]
	for _, nb := range nd.links[level] {
		cands = append(cands, cand{nb, sqDist(v, ix.vec(nb))})
	}
	ix.pruneBuf = cands
	nd.links[level] = ix.selectNeighbors(cands, limit)
}

// Insert adds (or upserts) id with the given vector. The vector is copied.
func (ix *Index) Insert(id uint64, vec []float32) error {
	if len(vec) != ix.cfg.Dim {
		return fmt.Errorf("ann: vector for id %d has dim %d, index expects %d", id, len(vec), ix.cfg.Dim)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if old, ok := ix.byID[id]; ok {
		ix.nodes[old].dead = true
		ix.tombstones++
	}
	ix.insertLocked(id, vec)
	ix.cfg.Metrics.Inserts.Inc()
	ix.maybeCompactLocked()
	return nil
}

// insertLocked copies vec into the arena and links a fresh node into the
// graph. Caller holds the write lock and has already handled any previous
// node under the same ID.
func (ix *Index) insertLocked(id uint64, vec []float32) {
	level := ix.levelFor(id)
	ref := uint32(len(ix.nodes))
	links := make([][]uint32, level+1)
	ix.nodes = append(ix.nodes, node{id: id, links: links})
	ix.vecs = append(ix.vecs, vec...)
	ix.byID[id] = ref

	if ix.entry < 0 {
		ix.entry = int32(ref)
		ix.maxLevel = level
		return
	}
	ep := uint32(ix.entry)
	for lc := ix.maxLevel; lc > level; lc-- {
		ep = ix.greedyDescend(vec, ep, lc)
	}
	vs := ix.visits.Get().(*visitSet)
	top := level
	if ix.maxLevel < top {
		top = ix.maxLevel
	}
	for lc := top; lc >= 0; lc-- {
		cands := ix.searchLayer(vec, ep, ix.cfg.EfConstruction, lc, vs)
		neighbors := ix.selectNeighbors(cands, ix.cfg.M)
		ix.nodes[ref].links[lc] = neighbors
		for _, nb := range neighbors {
			ix.nodes[nb].links[lc] = append(ix.nodes[nb].links[lc], ref)
			ix.shrinkLinks(nb, lc)
		}
		// selectNeighbors sorted cands: continue the descent from the
		// closest candidate of this level.
		ep = cands[0].ref
	}
	ix.visits.Put(vs)
	if level > ix.maxLevel {
		ix.maxLevel = level
		ix.entry = int32(ref)
	}
}

// Delete tombstones id. Reports whether the ID was present.
func (ix *Index) Delete(id uint64) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ref, ok := ix.byID[id]
	if !ok {
		return false
	}
	delete(ix.byID, id)
	ix.nodes[ref].dead = true
	ix.tombstones++
	ix.cfg.Metrics.Deletes.Inc()
	ix.maybeCompactLocked()
	return true
}

// Contains reports whether id is live in the index.
func (ix *Index) Contains(id uint64) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	_, ok := ix.byID[id]
	return ok
}

// Search returns the k nearest live vectors to q, closest first.
func (ix *Index) Search(q []float32, k int) ([]Result, error) {
	if len(q) != ix.cfg.Dim {
		return nil, fmt.Errorf("ann: query has dim %d, index expects %d", len(q), ix.cfg.Dim)
	}
	if k <= 0 {
		return nil, nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ix.cfg.Metrics.Searches.Inc()
	if ix.entry < 0 {
		return nil, nil
	}
	ep := uint32(ix.entry)
	for lc := ix.maxLevel; lc > 0; lc-- {
		ep = ix.greedyDescend(q, ep, lc)
	}
	// A beam wider than the arena finds nothing more, and capping it keeps
	// a huge k from overflowing the widening below.
	ef := max(ix.cfg.EfSearch, min(k, len(ix.nodes)))
	// Tombstones route but never land in results, so widen the beam enough
	// to see past them.
	if t := ix.tombstones; t > 0 {
		bonus := t
		if bonus > ef {
			bonus = ef
		}
		ef += bonus
	}
	vs := ix.visits.Get().(*visitSet)
	defer ix.visits.Put(vs)
	best := ix.searchLayer(q, ep, ef, 0, vs)
	slices.SortFunc(best, byDist)
	out := make([]Result, 0, min(k, len(best)))
	for _, c := range best {
		if ix.nodes[c.ref].dead {
			continue
		}
		out = append(out, Result{ID: ix.nodes[c.ref].id, Dist: c.dist})
		if len(out) == k {
			break
		}
	}
	return out, nil
}

// Vector returns a copy of the live vector stored under id.
func (ix *Index) Vector(id uint64) ([]float32, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ref, ok := ix.byID[id]
	if !ok {
		return nil, false
	}
	return append([]float32(nil), ix.vec(ref)...), true
}

// ForEach visits every live (id, vector) pair under the read lock until fn
// returns false. The vector slice is the index's own storage — callers must
// not retain or mutate it.
func (ix *Index) ForEach(fn func(id uint64, vec []float32) bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for i := range ix.nodes {
		if ix.nodes[i].dead {
			continue
		}
		if !fn(ix.nodes[i].id, ix.vec(uint32(i))) {
			return
		}
	}
}

// Len returns the number of live vectors.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.byID)
}

// Tombstones returns the number of dead arena entries awaiting compaction.
func (ix *Index) Tombstones() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.tombstones
}

// Compact rebuilds the graph from the live set, dropping tombstones. O(n)
// memory and a full re-link; call it from maintenance paths (the index also
// self-compacts when tombstones exceed Config.MaxTombstoneShare).
func (ix *Index) Compact() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.compactLocked()
}

// maybeCompactLocked self-compacts once tombstones dominate the arena.
func (ix *Index) maybeCompactLocked() {
	if ix.tombstones == 0 {
		return
	}
	if float64(ix.tombstones) > ix.cfg.MaxTombstoneShare*float64(len(ix.nodes)) {
		ix.compactLocked()
	}
}

func (ix *Index) compactLocked() {
	if ix.tombstones == 0 {
		return
	}
	old, oldVecs := ix.nodes, ix.vecs
	ix.nodes = make([]node, 0, len(ix.byID))
	ix.vecs = make([]float32, 0, len(ix.byID)*ix.cfg.Dim)
	ix.byID = make(map[uint64]uint32, len(ix.byID))
	ix.entry = -1
	ix.maxLevel = 0
	ix.tombstones = 0
	// Deterministic levels make the rebuild shape independent of the
	// original insertion interleaving.
	for i := range old {
		if old[i].dead {
			continue
		}
		o := i * ix.cfg.Dim
		ix.insertLocked(old[i].id, oldVecs[o:o+ix.cfg.Dim])
	}
	ix.cfg.Metrics.Compactions.Inc()
}
