package core

import (
	"platod2gl/internal/cstable"
	"platod2gl/internal/fenwick"
)

// LeafTableKind selects the leaf weight structure.
type LeafTableKind uint8

const (
	// LeafFTS uses the FSTable with Fenwick-tree sampling — the paper's
	// contribution; O(log n) update / delete / sample.
	LeafFTS LeafTableKind = iota
	// LeafITS uses a CSTable with Inverse Transform Sampling — the
	// PlatoGL-style structure; O(n) update / delete, O(log n) sample.
	// Exists for the ablation benchmarks.
	LeafITS
)

func (k LeafTableKind) String() string {
	if k == LeafITS {
		return "ITS"
	}
	return "FTS"
}

// leafTable is a leaf's weight table, held by value inside its node. The
// FSTable sits in the node itself, and the FTS sampling paths search it
// directly. its is set only in the LeafITS ablation — the head-to-head of
// Table II inside a full samtree — where a CSTable replaces the FSTable.
// Semantics follow the FSTable: Delete is a swap-delete (position i takes
// the last element's weight), matching the unordered leaf ID list.
type leafTable struct {
	fts fenwick.FSTable
	its *cstable.CSTable
}

// makeLeafTable builds the configured leaf table from raw weights.
func makeLeafTable(kind LeafTableKind, weights []float64) leafTable {
	if kind == LeafITS {
		its := &cstable.CSTable{}
		for _, w := range weights {
			its.Append(w)
		}
		return leafTable{its: its}
	}
	return leafTable{fts: fenwick.Make(weights)}
}

// Len returns the number of weights.
func (t *leafTable) Len() int {
	if t.its != nil {
		return t.its.Len()
	}
	return t.fts.Len()
}

// Total returns the sum of all weights.
func (t *leafTable) Total() float64 {
	if t.its != nil {
		return t.its.Total()
	}
	return t.fts.Total()
}

// Weight returns the raw weight at index i.
func (t *leafTable) Weight(i int) float64 {
	if t.its != nil {
		return t.its.Weight(i)
	}
	return t.fts.Weight(i)
}

// Update sets the weight at index i.
func (t *leafTable) Update(i int, w float64) {
	if t.its != nil {
		t.its.Update(i, w)
		return
	}
	t.fts.Update(i, w)
}

// Append adds a weight at the end.
func (t *leafTable) Append(w float64) {
	if t.its != nil {
		t.its.Append(w)
		return
	}
	t.fts.Append(w)
}

// Delete removes index i with swap-delete semantics: O(log n) on the
// FSTable, O(n) on the CSTable's strict prefix sums.
func (t *leafTable) Delete(i int) {
	if t.its == nil {
		t.fts.Delete(i)
		return
	}
	n := t.its.Len()
	if i != n-1 {
		t.its.Update(i, t.its.Weight(n-1))
	}
	t.its.Truncate(n - 1)
}

// Sample returns the smallest index whose strict prefix sum exceeds r.
func (t *leafTable) Sample(r float64) int {
	if t.its != nil {
		return t.its.Sample(r)
	}
	return t.fts.Sample(r)
}

// Weights reconstructs the raw weight array.
func (t *leafTable) Weights() []float64 {
	if t.its != nil {
		return t.its.Weights()
	}
	return t.fts.Weights()
}

// MemoryBytes returns the structural footprint.
func (t *leafTable) MemoryBytes() int64 {
	if t.its != nil {
		return t.its.MemoryBytes()
	}
	return t.fts.MemoryBytes()
}
