package core

import "sort"

// This file implements intra-tree batch application — the per-tree half of
// the PALM-style mechanism (Appendix B): a batch of operations destined for
// one samtree is in neighbor-ID order, so consecutive operations tend to
// land in the same leaf and the root-to-leaf search can be reused across
// them. The cross-tree half (group per tree, order each group by
// destination, partition across workers) lives in internal/palm.

// OpKind enumerates tree-level operations.
type OpKind uint8

const (
	// OpInsert inserts a neighbor or updates its weight if present.
	OpInsert OpKind = iota
	// OpDelete removes a neighbor.
	OpDelete
	// OpUpdate changes an existing neighbor's weight (no-op if absent).
	OpUpdate
)

// Op is one batched tree operation.
type Op struct {
	Kind   OpKind
	ID     uint64
	Weight float64
}

// ApplyBatch applies ops to the tree, reporting how many neighbors were
// added and removed. Operations are processed in ID order (ties keep input
// order, so multiple updates to one neighbor apply in sequence); the ops
// slice is reordered in place.
//
// The descent for an operation is skipped entirely when the previous
// operation resolved to a leaf whose key range still covers the next ID and
// no structural change (split / merge) has occurred since — on sorted
// batches this collapses most searches to O(1).
func (t *Tree) ApplyBatch(ops []Op) (added, removed int) {
	if len(ops) == 0 {
		return 0, 0
	}
	// Groups coming from internal/palm arrive in destination-ID order;
	// detect that in O(n) rather than re-sorting.
	sorted := true
	for i := 1; i < len(ops); i++ {
		if ops[i].ID < ops[i-1].ID {
			sorted = false
			break
		}
	}
	if !sorted {
		sort.SliceStable(ops, func(i, j int) bool { return ops[i].ID < ops[j].ID })
	}

	var pathBuf [8]pathEntry
	var (
		leaf    *node
		path    []pathEntry
		lowKey  uint64
		highKey uint64
		bounded bool // highKey valid
		valid   bool // cached leaf usable
	)
	for i := range ops {
		op := &ops[i]
		if !valid || op.ID < lowKey || (bounded && op.ID >= highKey) {
			leaf, path, lowKey, highKey, bounded = t.descendBounded(op.ID, pathBuf[:0])
			valid = true
		}
		switch op.Kind {
		case OpInsert:
			t.opt.Counters.leaf(1)
			if idx := leaf.ids.IndexOf(op.ID); idx >= 0 {
				delta := op.Weight - leaf.fs.Weight(idx)
				leaf.fs.Update(idx, op.Weight)
				propagate(path, delta)
				continue
			}
			// New subtree minimum: maintain the keys[0] invariant (see
			// Insert). The cached bounds already guarantee op.ID >= lowKey
			// when a leaf is reused, so this only triggers on fresh
			// descents, which descendBounded handled.
			leaf.ids.Append(op.ID)
			leaf.fs.Append(op.Weight)
			t.size++
			added++
			propagate(path, op.Weight)
			propagateCount(path, 1)
			if leaf.ids.Len() > t.opt.Capacity {
				t.splitLeaf(leaf, path)
				valid = false
			}
		case OpDelete:
			idx := leaf.ids.IndexOf(op.ID)
			if idx < 0 {
				continue
			}
			t.opt.Counters.leaf(1)
			w := leaf.fs.Weight(idx)
			last := leaf.ids.Len() - 1
			leaf.ids.Swap(idx, last)
			leaf.ids.RemoveLast()
			leaf.fs.Delete(idx)
			t.size--
			removed++
			propagate(path, -w)
			propagateCount(path, -1)
			if leaf.count() < t.opt.Capacity/2 && len(path) > 0 {
				t.fixUnderflow(leaf, path)
				valid = false
			}
		case OpUpdate:
			idx := leaf.ids.IndexOf(op.ID)
			if idx < 0 {
				continue
			}
			t.opt.Counters.leaf(1)
			delta := op.Weight - leaf.fs.Weight(idx)
			leaf.fs.Update(idx, op.Weight)
			propagate(path, delta)
		}
	}
	return added, removed
}

// descendBounded walks to the leaf responsible for id like Insert's descent
// (maintaining the keys[0] invariant), additionally returning the leaf's
// covering key range [low, high) for descent reuse. bounded reports whether
// high is finite.
func (t *Tree) descendBounded(id uint64, path []pathEntry) (leaf *node, outPath []pathEntry, low, high uint64, bounded bool) {
	n := t.root
	low = 0
	for !n.isLeaf() {
		if id < n.keys.Get(0) {
			n.keys.Set(0, id)
		}
		ci := route(n, id)
		if k := n.keys.Get(ci); k > low {
			low = k
		}
		if ci+1 < n.keys.Len() {
			h := n.keys.Get(ci + 1)
			if !bounded || h < high {
				high = h
				bounded = true
			}
		}
		path = append(path, pathEntry{n, ci})
		n = n.children[ci]
	}
	return n, path, low, high, bounded
}
