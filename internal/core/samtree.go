// Package core implements the samtree, the primary contribution of the
// PlatoD2GL paper (Sec. IV): a non-key-value, B+-tree-like structure holding
// one source vertex's out-neighbors with their edge weights.
//
// A samtree with node capacity c obeys Definition 1 (at most c children per
// node, at least ⌈c/2⌉ for internal nodes, ≥2 children at a non-leaf root,
// all leaves on one level) plus the paper's four constraints:
//
//  1. leaves hold the neighbor IDs, internal nodes hold per-child aggregates;
//  2. leaf ID lists are *unordered* (for O(log n) Fenwick updates) while
//     internal key lists are *ordered* (for O(log c) routing);
//  3. every internal node carries a CSTable over its children's subtree
//     weights, sampled with ITS;
//  4. every leaf carries an FSTable over its neighbor weights, sampled with
//     FTS.
//
// A full leaf is split with the α-Split algorithm (split.go) so the pivot
// doubles as the right sibling's exact routing key. A weighted neighbor
// sample descends the tree with one ITS search per internal level and one
// FTS search at the leaf (Sec. V-C).
package core

import (
	"fmt"
	"math/rand"
	"unsafe"

	"platod2gl/internal/compress"
	"platod2gl/internal/cstable"
	"platod2gl/internal/fenwick"
	"platod2gl/internal/prefetch"
)

// DefaultCapacity is the paper's default samtree node size (2^8, Sec. VII-A).
const DefaultCapacity = 256

// Options configure a samtree.
type Options struct {
	// Capacity is the node capacity c (maximum IDs in a leaf / children in
	// an internal node). Defaults to DefaultCapacity. Minimum 4.
	Capacity int
	// Alpha is the α-Split slackness: how far from the exact median the
	// split pivot may land. 0 (the paper's default) degenerates to exact
	// QuickSelect.
	Alpha int
	// Compress enables CP-IDs dynamic prefix compression of the node ID
	// lists (Sec. VI-A). Disabled reproduces the paper's "w/o CP" ablation.
	Compress bool
	// Counters, if non-nil, receives operation accounting shared across
	// trees (Table V's leaf vs non-leaf update distribution).
	Counters *Counters
	// LeafTable selects the leaf weight structure: LeafFTS (default, the
	// paper's FSTable) or LeafITS (CSTable ablation).
	LeafTable LeafTableKind
	// Split selects the leaf split strategy: SplitAlpha (default, the
	// paper's α-Split) or SplitSort (O(n log n) ablation).
	Split SplitStrategy
}

func (o Options) withDefaults() Options {
	if o.Capacity == 0 {
		o.Capacity = DefaultCapacity
	}
	if o.Capacity < 4 {
		o.Capacity = 4
	}
	if o.Alpha < 0 {
		o.Alpha = 0
	}
	return o
}

// node is a samtree node: a leaf (ids+fs set) or an internal node
// (keys+children+cs set). Using one struct avoids interface dispatch on the
// hot descent path. A leaf holds its ID list and weight table by value, so a
// one-leaf tree is this node plus the two backing arrays.
type node struct {
	// Internal fields. children is nil exactly when the node is a leaf.
	children []*node          //
	keys     *compress.IDVec  // keys.Get(i) = smallest ID in children[i]'s subtree; ascending
	cs       *cstable.CSTable // cs.Weight(i) = total weight of children[i]'s subtree
	counts   []int32          // counts[i] = neighbor count in children[i]'s subtree

	// Leaf fields.
	ids compress.IDVec // unordered neighbor IDs
	fs  leafTable      // weight table over the neighbor weights, same order
}

func (n *node) isLeaf() bool { return n.children == nil }

// total returns the node's subtree weight.
func (n *node) total() float64 {
	if n.isLeaf() {
		return n.fs.Total()
	}
	return n.cs.Total()
}

// count returns the number of entries in this node (IDs for a leaf, children
// for an internal node).
func (n *node) count() int {
	if n.isLeaf() {
		return n.ids.Len()
	}
	return len(n.children)
}

// subtreeCount returns the number of neighbors stored under n.
func (n *node) subtreeCount() int32 {
	if n.isLeaf() {
		return int32(n.ids.Len())
	}
	var c int32
	for _, v := range n.counts {
		c += v
	}
	return c
}

// Tree is a samtree for a single source vertex. Not safe for concurrent
// mutation; the batch layer (internal/palm) and the storage layer serialize
// writers per tree. A Tree may be held by value (MakeTree), but must not be
// copied once it holds neighbors: the copies would share nodes.
type Tree struct {
	root   *node
	size   int
	height int
	opt    Options
}

// NewTree returns an empty samtree.
func NewTree(opt Options) *Tree {
	t := MakeTree(opt)
	return &t
}

// MakeTree is NewTree returning the tree by value, for a struct that holds
// its samtree in place.
func MakeTree(opt Options) Tree {
	opt = opt.withDefaults()
	return Tree{root: newLeafFrom(opt, nil, nil), height: 1, opt: opt}
}

func newLeafFrom(opt Options, ids []uint64, weights []float64) *node {
	n := &node{fs: makeLeafTable(opt.LeafTable, weights)}
	if opt.Compress {
		n.ids = compress.MakeIDVec(ids)
	} else {
		n.ids = compress.MakeUncompressed(ids)
	}
	return n
}

func newInner(opt Options, keys []uint64, children []*node, weights []float64) *node {
	var kv *compress.IDVec
	if opt.Compress {
		kv = compress.NewIDVec(keys)
	} else {
		kv = compress.NewUncompressed(keys)
	}
	counts := make([]int32, len(children))
	for i, c := range children {
		counts[i] = c.subtreeCount()
	}
	return &node{keys: kv, children: children, cs: cstable.New(weights), counts: counts}
}

// Prefetch starts loading the root node into the cache, so that an update
// or a draw shortly after does not wait on it. Like every read of the tree,
// it must not race a writer.
func (t *Tree) Prefetch() { prefetch.Object(unsafe.Pointer(t.root), unsafe.Sizeof(*t.root)) }

// PrefetchLeaf starts loading the heads of the root's ID suffixes and
// Fenwick weights when the root is a leaf, the whole tree for most sources.
// It reads the root node, so it pays off once an earlier Prefetch has
// brought that in.
func (t *Tree) PrefetchLeaf() {
	if n := t.root; n.isLeaf() {
		n.ids.Prefetch()
		if n.fs.its == nil {
			n.fs.fts.Prefetch()
		}
	}
}

// Len returns the number of neighbors stored.
func (t *Tree) Len() int { return t.size }

// Height returns the tree height (1 for a single leaf).
func (t *Tree) Height() int { return t.height }

// TotalWeight returns the sum of all edge weights.
func (t *Tree) TotalWeight() float64 { return t.root.total() }

// Options returns the tree's configuration.
func (t *Tree) Options() Options { return t.opt }

// pathEntry records one internal node crossed during descent and the child
// index taken.
type pathEntry struct {
	n  *node
	ci int
}

// route returns the child index for id in internal node n: the largest j
// with keys[j] <= id, clamped to 0.
func route(n *node, id uint64) int {
	// Binary search for the first key > id.
	lo, hi := 0, n.keys.Len()
	for lo < hi {
		mid := (lo + hi) / 2
		if n.keys.Get(mid) > id {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 {
		return 0
	}
	return lo - 1
}

// descend walks from the root to the leaf responsible for id, recording the
// internal path.
func (t *Tree) descend(id uint64, path []pathEntry) (*node, []pathEntry) {
	n := t.root
	for !n.isLeaf() {
		ci := route(n, id)
		path = append(path, pathEntry{n, ci})
		n = n.children[ci]
	}
	return n, path
}

// Insert adds neighbor id with edge weight w, or updates its weight if
// already present (Algorithm 2). Returns true if the neighbor was new.
func (t *Tree) Insert(id uint64, w float64) bool {
	var pathBuf [8]pathEntry
	// Descend while maintaining the key invariant keys[j] <= min(child j):
	// an id below keys[0] is a new subtree minimum (it cannot already be
	// stored), so lower keys[0] to keep future split pivots strictly above
	// their left neighbor key.
	leaf := t.root
	path := pathBuf[:0]
	for !leaf.isLeaf() {
		if id < leaf.keys.Get(0) {
			leaf.keys.Set(0, id)
		}
		ci := route(leaf, id)
		path = append(path, pathEntry{leaf, ci})
		leaf = leaf.children[ci]
	}
	// Table V accounting: one leaf update per operation; non-leaf updates
	// are counted only for structural internal-node modifications (splits,
	// merges) — ancestor CSTable weight propagation rides along the single
	// update and is not a separate operation.
	t.opt.Counters.leaf(1)

	if idx := leaf.ids.IndexOf(id); idx >= 0 {
		delta := w - leaf.fs.Weight(idx)
		leaf.fs.Update(idx, w)
		propagate(path, delta)
		return false
	}
	leaf.ids.Append(id)
	leaf.fs.Append(w)
	t.size++
	propagate(path, w)
	propagateCount(path, 1)
	if leaf.ids.Len() > t.opt.Capacity {
		t.splitLeaf(leaf, path)
	}
	return true
}

// UpdateWeight sets the weight of an existing neighbor. Returns false if id
// is not a neighbor.
func (t *Tree) UpdateWeight(id uint64, w float64) bool {
	var pathBuf [8]pathEntry
	leaf, path := t.descend(id, pathBuf[:0])
	idx := leaf.ids.IndexOf(id)
	if idx < 0 {
		return false
	}
	t.opt.Counters.leaf(1)
	delta := w - leaf.fs.Weight(idx)
	leaf.fs.Update(idx, w)
	propagate(path, delta)
	return true
}

// propagate adds delta to every ancestor CSTable entry along the path.
func propagate(path []pathEntry, delta float64) {
	if delta == 0 {
		return
	}
	for i := len(path) - 1; i >= 0; i-- {
		path[i].n.cs.AddFrom(path[i].ci, delta)
	}
}

// propagateCount adjusts the per-child neighbor counts along the path.
func propagateCount(path []pathEntry, delta int32) {
	for i := len(path) - 1; i >= 0; i-- {
		path[i].n.counts[path[i].ci] += delta
	}
}

// splitLeaf splits an over-full leaf with α-Split and pushes the new sibling
// into the parent, cascading internal splits as needed.
func (t *Tree) splitLeaf(leaf *node, path []pathEntry) {
	t.opt.Counters.splits(1)
	ids := leaf.ids.All()
	weights := leaf.fs.Weights()
	var k int
	if t.opt.Split == SplitSort {
		k = sortSplit(ids, weights)
	} else {
		k = alphaSplit(ids, weights, t.opt.Alpha)
	}
	left := newLeafFrom(t.opt, ids[:k], weights[:k])
	right := newLeafFrom(t.opt, ids[k:], weights[k:])
	// The pivot sits first in the right half, so its value is the exact
	// smallest ID of the right sibling.
	rightKey := ids[k]
	t.replaceChild(left, right, rightKey, path)
}

// replaceChild swaps the node at the end of path for left+right in its
// parent, creating a new root if it was the root, and cascading internal
// splits.
func (t *Tree) replaceChild(left, right *node, rightKey uint64, path []pathEntry) {
	if len(path) == 0 {
		// old was the root: grow the tree by one level.
		leftKey := minKeyOf(left)
		t.root = newInner(t.opt, []uint64{leftKey, rightKey},
			[]*node{left, right}, []float64{left.total(), right.total()})
		t.height++
		return
	}
	p := path[len(path)-1]
	parent, ci := p.n, p.ci
	t.opt.Counters.nonLeaf(1)
	parent.children[ci] = left
	parent.cs.Update(ci, left.total())
	parent.children = append(parent.children, nil)
	copy(parent.children[ci+2:], parent.children[ci+1:])
	parent.children[ci+1] = right
	parent.keys.InsertAt(ci+1, rightKey)
	parent.cs.Insert(ci+1, right.total())
	parent.counts = append(parent.counts, 0)
	copy(parent.counts[ci+2:], parent.counts[ci+1:])
	parent.counts[ci] = left.subtreeCount()
	parent.counts[ci+1] = right.subtreeCount()
	if len(parent.children) > t.opt.Capacity {
		t.splitInner(parent, path[:len(path)-1])
	}
}

// splitInner splits an over-full internal node at its exact median — the key
// list is ordered, so the median is positional (Sec. IV-C).
func (t *Tree) splitInner(n *node, path []pathEntry) {
	t.opt.Counters.splits(1)
	t.opt.Counters.nonLeaf(1)
	m := len(n.children) / 2
	keys := n.keys.All()
	weights := n.cs.Weights()
	leftChildren := make([]*node, m)
	copy(leftChildren, n.children[:m])
	rightChildren := make([]*node, len(n.children)-m)
	copy(rightChildren, n.children[m:])
	left := newInner(t.opt, keys[:m], leftChildren, weights[:m])
	right := newInner(t.opt, keys[m:], rightChildren, weights[m:])
	t.replaceChild(left, right, keys[m], path)
}

// minKeyOf returns the routing key recorded for a node's subtree: its first
// key (internal) or — leaves being unordered — the smallest stored ID.
func minKeyOf(n *node) uint64 {
	if !n.isLeaf() {
		return n.keys.Get(0)
	}
	if n.ids.Len() == 0 {
		return 0
	}
	min := n.ids.Get(0)
	for i := 1; i < n.ids.Len(); i++ {
		if v := n.ids.Get(i); v < min {
			min = v
		}
	}
	return min
}

// Weight returns the edge weight of neighbor id.
func (t *Tree) Weight(id uint64) (float64, bool) {
	n := t.root
	for !n.isLeaf() {
		n = n.children[route(n, id)]
	}
	idx := n.ids.IndexOf(id)
	if idx < 0 {
		return 0, false
	}
	return n.fs.Weight(idx), true
}

// Contains reports whether id is a stored neighbor.
func (t *Tree) Contains(id uint64) bool {
	_, ok := t.Weight(id)
	return ok
}

// Delete removes neighbor id. Returns false if absent. Under-full nodes are
// merged with their nearest sibling, or rebalanced when the union would
// overflow (Sec. IV-D).
func (t *Tree) Delete(id uint64) bool {
	var pathBuf [8]pathEntry
	leaf, path := t.descend(id, pathBuf[:0])
	idx := leaf.ids.IndexOf(id)
	if idx < 0 {
		return false
	}
	t.opt.Counters.leaf(1)
	w := leaf.fs.Weight(idx)
	last := leaf.ids.Len() - 1
	leaf.ids.Swap(idx, last)
	leaf.ids.RemoveLast()
	leaf.fs.Delete(idx)
	t.size--
	propagate(path, -w)
	propagateCount(path, -1)
	t.fixUnderflow(leaf, path)
	return true
}

// fixUnderflow repairs an under-full node bottom-up after a deletion.
func (t *Tree) fixUnderflow(n *node, path []pathEntry) {
	minFill := t.opt.Capacity / 2
	for {
		if len(path) == 0 {
			// Root: collapse if it is an internal node with one child.
			if !n.isLeaf() && len(n.children) == 1 {
				t.root = n.children[0]
				t.height--
			}
			return
		}
		if n.count() >= minFill {
			return
		}
		p := path[len(path)-1]
		parent, ci := p.n, p.ci
		t.opt.Counters.merges(1)
		t.opt.Counters.nonLeaf(1)
		// Merge with the nearest sibling; prefer the left one.
		li := ci - 1
		if ci == 0 {
			li = 0 // merge children[0] with children[1]
		}
		t.mergeChildren(parent, li)
		n = parent
		path = path[:len(path)-1]
	}
}

// mergeChildren combines parent.children[li] and parent.children[li+1]. If
// the union exceeds capacity the entries are redistributed between the two
// instead (a borrow), otherwise the right child is removed.
func (t *Tree) mergeChildren(parent *node, li int) {
	left, right := parent.children[li], parent.children[li+1]
	if left.isLeaf() {
		ids := append(left.ids.All(), right.ids.All()...)
		weights := append(left.fs.Weights(), right.fs.Weights()...)
		if len(ids) > t.opt.Capacity {
			// Redistribute around an approximate median.
			k := alphaSplit(ids, weights, t.opt.Alpha)
			nl := newLeafFrom(t.opt, ids[:k], weights[:k])
			nr := newLeafFrom(t.opt, ids[k:], weights[k:])
			parent.children[li], parent.children[li+1] = nl, nr
			parent.keys.Set(li+1, ids[k])
			parent.cs.Update(li, nl.total())
			parent.cs.Update(li+1, nr.total())
			parent.counts[li] = nl.subtreeCount()
			parent.counts[li+1] = nr.subtreeCount()
			return
		}
		merged := newLeafFrom(t.opt, ids, weights)
		t.removeRight(parent, li, merged)
		return
	}
	keys := append(left.keys.All(), right.keys.All()...)
	children := append(append([]*node(nil), left.children...), right.children...)
	weights := append(left.cs.Weights(), right.cs.Weights()...)
	if len(children) > t.opt.Capacity {
		m := len(children) / 2
		// Each node must own its children array: sharing one backing array
		// lets a later append into the left node clobber the right's head.
		lc := make([]*node, m)
		copy(lc, children[:m])
		rc := make([]*node, len(children)-m)
		copy(rc, children[m:])
		nl := newInner(t.opt, keys[:m], lc, weights[:m])
		nr := newInner(t.opt, keys[m:], rc, weights[m:])
		parent.children[li], parent.children[li+1] = nl, nr
		parent.keys.Set(li+1, keys[m])
		parent.cs.Update(li, nl.total())
		parent.cs.Update(li+1, nr.total())
		parent.counts[li] = nl.subtreeCount()
		parent.counts[li+1] = nr.subtreeCount()
		return
	}
	merged := newInner(t.opt, keys, children, weights)
	t.removeRight(parent, li, merged)
}

// removeRight installs merged at position li and removes the entry li+1.
func (t *Tree) removeRight(parent *node, li int, merged *node) {
	parent.children[li] = merged
	parent.cs.Update(li, merged.total())
	parent.counts[li] = merged.subtreeCount()
	copy(parent.children[li+1:], parent.children[li+2:])
	parent.children = parent.children[:len(parent.children)-1]
	parent.keys.RemoveAt(li + 1)
	parent.cs.Delete(li + 1)
	copy(parent.counts[li+1:], parent.counts[li+2:])
	parent.counts = parent.counts[:len(parent.counts)-1]
}

// SampleBatch is the most draws one lockstep leaf search takes. Callers that
// keep their draw buffers on the stack, like AppendSamples, size them by it.
const SampleBatch = 32

// SampleMany draws len(us) neighbors with replacement, each with probability
// proportional to its edge weight: us[i] is a uniform variate in [0, 1) and
// out[i] receives the neighbor it selects. us is overwritten. Returns false,
// leaving out untouched, on an empty tree.
//
// The tree's total weight is read once for the whole call. Each draw then
// takes one ITS search per internal level down to its leaf, and the leaf
// searches of up to SampleBatch draws run as one lockstep FTS search
// (Sec. V-C). When the root is itself the leaf, the batch shares one table
// and its IDs are decoded in one pass.
func (t *Tree) SampleMany(us []float64, out []uint64) bool {
	if t.size == 0 {
		return false
	}
	out = out[:len(us)]
	total := t.root.total()
	for len(us) > 0 {
		c := min(len(us), SampleBatch)
		t.sampleBatch(us[:c], total, out[:c])
		us, out = us[c:], out[c:]
	}
	return true
}

// sampleBatch draws len(rs) <= SampleBatch neighbors into out.
func (t *Tree) sampleBatch(rs []float64, total float64, out []uint64) {
	var posBuf [SampleBatch]int
	pos := posBuf[:len(rs)]
	for i := range rs {
		rs[i] *= total
	}
	if root := t.root; root.isLeaf() && t.opt.LeafTable == LeafFTS {
		root.fs.fts.SampleMany(rs, pos)
		root.ids.GetMany(pos, out)
		return
	}
	t.sampleEachLeaf(rs, pos, out)
}

// sampleEachLeaf is sampleBatch when the draws may end in different leaves:
// each draw descends to its own leaf, then the leaf searches run together.
// CSTable leaves (the ITS ablation) are searched one draw at a time.
func (t *Tree) sampleEachLeaf(rs []float64, pos []int, out []uint64) {
	var leafBuf [SampleBatch]*node
	leaves := leafBuf[:len(rs)]
	for i, r := range rs {
		leaves[i], rs[i] = t.root.descendWeighted(r)
	}
	if t.opt.LeafTable == LeafFTS {
		var tableBuf [SampleBatch]*fenwick.FSTable
		tables := tableBuf[:len(rs)]
		for i, n := range leaves {
			tables[i] = &n.fs.fts
		}
		fenwick.SampleEach(tables, rs, pos)
	} else {
		for i, n := range leaves {
			pos[i] = n.fs.Sample(rs[i])
		}
	}
	for i, n := range leaves {
		out[i] = n.ids.Get(pos[i])
	}
}

// sampleOne returns the neighbor that u, a uniform variate in [0, 1),
// selects: the one-draw case of sampleBatch, without its batch buffers.
func (t *Tree) sampleOne(u float64) uint64 {
	leaf, r := t.root.descendWeighted(u * t.root.total())
	return leaf.ids.Get(leaf.fs.Sample(r))
}

// descendWeighted walks from n to the leaf that r, a point in
// [0, n.total()), falls in — one ITS search per internal level — and returns
// the leaf with r's offset inside it.
func (n *node) descendWeighted(r float64) (*node, float64) {
	for !n.isLeaf() {
		i := n.cs.Sample(r)
		if i > 0 {
			r -= n.cs.Prefix(i - 1)
		}
		n = n.children[i]
	}
	return n, r
}

// SampleOne draws one neighbor with probability proportional to its edge
// weight. Returns false on an empty tree.
func (t *Tree) SampleOne(rng *rand.Rand) (uint64, bool) {
	if t.size == 0 {
		return 0, false
	}
	return t.sampleOne(rng.Float64()), true
}

// AppendSamples draws k neighbors of t with replacement, weighted by edge
// weight, and appends them to dst. It consumes exactly k rng.Float64 values
// in order, the i-th selecting the i-th neighbor appended, or none when t is
// empty.
func AppendSamples[T ~uint64](t *Tree, rng *rand.Rand, k int, dst []T) []T {
	if t.size == 0 {
		return dst
	}
	if k == 1 {
		// Random walks and rejection loops draw one at a time.
		return append(dst, T(t.sampleOne(rng.Float64())))
	}
	var us [SampleBatch]float64
	var ids [SampleBatch]uint64
	for k > 0 {
		c := min(k, SampleBatch)
		for i := range us[:c] {
			us[i] = rng.Float64()
		}
		t.SampleMany(us[:c], ids[:c])
		for _, id := range ids[:c] {
			dst = append(dst, T(id))
		}
		k -= c
	}
	return dst
}

// ForEach visits every (neighbor, weight) pair until fn returns false.
// Within a leaf the visit order is the leaf's physical (unordered) order.
func (t *Tree) ForEach(fn func(id uint64, w float64) bool) {
	t.forEachNode(t.root, fn)
}

func (t *Tree) forEachNode(n *node, fn func(id uint64, w float64) bool) bool {
	if n.isLeaf() {
		for i := 0; i < n.ids.Len(); i++ {
			if !fn(n.ids.Get(i), n.fs.Weight(i)) {
				return false
			}
		}
		return true
	}
	for _, c := range n.children {
		if !t.forEachNode(c, fn) {
			return false
		}
	}
	return true
}

// Neighbors returns all neighbor IDs and weights (order unspecified).
func (t *Tree) Neighbors() ([]uint64, []float64) {
	ids := make([]uint64, 0, t.size)
	weights := make([]float64, 0, t.size)
	t.ForEach(func(id uint64, w float64) bool {
		ids = append(ids, id)
		weights = append(weights, w)
		return true
	})
	return ids, weights
}

// nodeOverhead is the fixed per-node charge of MemoryBytes' estimate, not
// the node struct's size: unsafe.Sizeof(node{}) is larger, and neither the
// Tree nor allocator rounding is counted. It stays until MemoryBytes counts
// what the allocator holds, so that the estimate (and bytes per edge) reads
// the same across node layouts.
const nodeOverhead = 64

// MemoryBytes returns the structural footprint of the whole tree.
func (t *Tree) MemoryBytes() int64 {
	return t.memNode(t.root)
}

func (t *Tree) memNode(n *node) int64 {
	if n.isLeaf() {
		return nodeOverhead + n.ids.MemoryBytes() + n.fs.MemoryBytes()
	}
	total := int64(nodeOverhead) + n.keys.MemoryBytes() + n.cs.MemoryBytes() +
		int64(24+8*cap(n.children)) + int64(24+4*cap(n.counts))
	for _, c := range n.children {
		total += t.memNode(c)
	}
	return total
}

// CheckInvariants validates the full samtree structure; tests call it after
// mutation storms. It verifies Definition 1, the ordering constraints, the
// routing keys, and that every aggregate (CSTable entry, subtree weight,
// size) is consistent with the leaves.
func (t *Tree) CheckInvariants() error {
	if t.root == nil {
		return fmt.Errorf("nil root")
	}
	seen := make(map[uint64]bool, t.size)
	count, _, err := t.checkNode(t.root, t.height, seen, true)
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("size %d but counted %d neighbors", t.size, count)
	}
	return nil
}

// checkNode returns (neighborCount, subtreeWeight, error) and validates the
// subtree rooted at n, which must sit depth levels above the leaves.
func (t *Tree) checkNode(n *node, depth int, seen map[uint64]bool, isRoot bool) (int, float64, error) {
	const eps = 1e-6
	if n.isLeaf() {
		if depth != 1 {
			return 0, 0, fmt.Errorf("leaf at depth %d (height %d): leaves must share one level", depth, t.height)
		}
		if n.ids.Len() != n.fs.Len() {
			return 0, 0, fmt.Errorf("leaf ids/fs length mismatch: %d vs %d", n.ids.Len(), n.fs.Len())
		}
		if !isRoot && n.ids.Len() > t.opt.Capacity {
			return 0, 0, fmt.Errorf("leaf overflow: %d > %d", n.ids.Len(), t.opt.Capacity)
		}
		for i := 0; i < n.ids.Len(); i++ {
			id := n.ids.Get(i)
			if seen[id] {
				return 0, 0, fmt.Errorf("duplicate neighbor %d", id)
			}
			seen[id] = true
			if w := n.fs.Weight(i); w < -eps {
				return 0, 0, fmt.Errorf("negative weight %v for neighbor %d", w, id)
			}
		}
		return n.ids.Len(), n.fs.Total(), nil
	}
	nc := len(n.children)
	if nc != n.keys.Len() || nc != n.cs.Len() || nc != len(n.counts) {
		return 0, 0, fmt.Errorf("internal arity mismatch: children=%d keys=%d cs=%d counts=%d",
			nc, n.keys.Len(), n.cs.Len(), len(n.counts))
	}
	if nc > t.opt.Capacity {
		return 0, 0, fmt.Errorf("internal overflow: %d > %d", nc, t.opt.Capacity)
	}
	if isRoot && nc < 2 {
		return 0, 0, fmt.Errorf("internal root with %d children", nc)
	}
	count := 0
	total := 0.0
	for i := 0; i < nc; i++ {
		if i > 0 && n.keys.Get(i) <= n.keys.Get(i-1) {
			return 0, 0, fmt.Errorf("keys not strictly increasing at %d: %d <= %d", i, n.keys.Get(i), n.keys.Get(i-1))
		}
		c, w, err := t.checkNode(n.children[i], depth-1, seen, false)
		if err != nil {
			return 0, 0, err
		}
		if diff := w - n.cs.Weight(i); diff > eps || diff < -eps {
			return 0, 0, fmt.Errorf("cs[%d] = %v but subtree weight is %v", i, n.cs.Weight(i), w)
		}
		if int(n.counts[i]) != c {
			return 0, 0, fmt.Errorf("counts[%d] = %d but subtree holds %d neighbors", i, n.counts[i], c)
		}
		// All IDs in child i must be >= keys[i] (keys may lag low after the
		// subtree minimum is deleted, never high) and < keys[i+1].
		lo := n.keys.Get(i)
		hi := uint64(0)
		bounded := i+1 < nc
		if bounded {
			hi = n.keys.Get(i + 1)
		}
		bad := false
		eachID(n.children[i], func(id uint64) {
			if id < lo {
				bad = true
			}
			if bounded && id >= hi {
				bad = true
			}
		})
		if bad {
			return 0, 0, fmt.Errorf("child %d violates key range [%d,%d)", i, lo, hi)
		}
		count += c
		total += w
	}
	return count, total, nil
}

func eachID(n *node, fn func(uint64)) {
	if n.isLeaf() {
		for i := 0; i < n.ids.Len(); i++ {
			fn(n.ids.Get(i))
		}
		return
	}
	for _, c := range n.children {
		eachID(c, fn)
	}
}
