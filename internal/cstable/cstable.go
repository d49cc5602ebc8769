// Package cstable implements the cumulative sum table (CSTable) and the
// Inverse Transform Sampling (ITS) method described in Sec. II-B of the
// PlatoD2GL paper.
//
// A CSTable C over a weight array A stores strict prefix sums,
// C[i] = sum_{j<=i} A[j] (Eq. 2). Sampling an index is a binary search in
// O(log n); appending is O(1); but an in-place weight update or a deletion
// must rewrite every later prefix, costing O(n) — the inefficiency PlatoGL
// inherits and PlatoD2GL's FSTable removes (Table II).
//
// PlatoD2GL itself still uses CSTables in samtree internal nodes, where the
// element count is the (small) child fan-out and updates are weight deltas
// that only touch suffixes.
package cstable

import "fmt"

// CSTable is a strict prefix-sum table. The zero value is an empty table
// ready to use. Not safe for concurrent mutation.
type CSTable struct {
	c []float64
}

// New builds a CSTable from raw weights in O(n).
func New(weights []float64) *CSTable {
	t := &CSTable{c: make([]float64, len(weights))}
	s := 0.0
	for i, w := range weights {
		s += w
		t.c[i] = s
	}
	return t
}

// NewWithCapacity returns an empty CSTable with room for c elements.
func NewWithCapacity(c int) *CSTable {
	return &CSTable{c: make([]float64, 0, c)}
}

// Len returns the number of weights in the table.
func (t *CSTable) Len() int { return len(t.c) }

// Total returns the sum of all weights in O(1).
func (t *CSTable) Total() float64 {
	if len(t.c) == 0 {
		return 0
	}
	return t.c[len(t.c)-1]
}

// Prefix returns the sum of weights with indices in [0, i] in O(1).
func (t *CSTable) Prefix(i int) float64 {
	if i < 0 || i >= len(t.c) {
		panic(fmt.Sprintf("cstable: Prefix index %d out of range [0,%d)", i, len(t.c)))
	}
	return t.c[i]
}

// Weight returns the raw weight at index i in O(1).
func (t *CSTable) Weight(i int) float64 {
	if i < 0 || i >= len(t.c) {
		panic(fmt.Sprintf("cstable: Weight index %d out of range [0,%d)", i, len(t.c)))
	}
	if i == 0 {
		return t.c[0]
	}
	return t.c[i] - t.c[i-1]
}

// Append adds a new weight at the end in O(1).
func (t *CSTable) Append(w float64) {
	t.c = append(t.c, t.Total()+w)
}

// Update sets the weight at index i to w, rewriting all later prefixes.
// O(n-i) — the CSTable's weakness for dynamic graphs.
func (t *CSTable) Update(i int, w float64) {
	t.AddFrom(i, w-t.Weight(i))
}

// AddFrom adds delta to the weight at index i by shifting every prefix sum
// at or after i. O(n-i).
func (t *CSTable) AddFrom(i int, delta float64) {
	if i < 0 || i >= len(t.c) {
		panic(fmt.Sprintf("cstable: AddFrom index %d out of range [0,%d)", i, len(t.c)))
	}
	for ; i < len(t.c); i++ {
		t.c[i] += delta
	}
}

// Delete removes the weight at index i, shifting later entries left and
// subtracting the removed weight from them. O(n-i).
func (t *CSTable) Delete(i int) {
	w := t.Weight(i)
	copy(t.c[i:], t.c[i+1:])
	t.c = t.c[:len(t.c)-1]
	for ; i < len(t.c); i++ {
		t.c[i] -= w
	}
}

// Insert inserts weight w at index i, shifting later entries right. O(n-i).
func (t *CSTable) Insert(i int, w float64) {
	if i < 0 || i > len(t.c) {
		panic(fmt.Sprintf("cstable: Insert index %d out of range [0,%d]", i, len(t.c)))
	}
	t.c = append(t.c, 0)
	copy(t.c[i+1:], t.c[i:])
	base := 0.0
	if i > 0 {
		base = t.c[i-1]
	}
	t.c[i] = base + w
	for j := i + 1; j < len(t.c); j++ {
		t.c[j] += w
	}
}

// Sample performs Inverse Transform Sampling: it returns the smallest index
// i with C[i] > r via binary search in O(log n). r should lie in
// [0, Total()); larger values clamp to the last index. Returns -1 on an
// empty table.
func (t *CSTable) Sample(r float64) int {
	n := len(t.c)
	if n == 0 {
		return -1
	}
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.c[mid] > r {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return min(lo, n-1)
}

// Weights reconstructs the raw weight array in O(n).
func (t *CSTable) Weights() []float64 {
	out := make([]float64, len(t.c))
	prev := 0.0
	for i, v := range t.c {
		out[i] = v - prev
		prev = v
	}
	return out
}

// Truncate drops all entries at index i and beyond.
func (t *CSTable) Truncate(i int) {
	if i < 0 || i > len(t.c) {
		panic(fmt.Sprintf("cstable: Truncate index %d out of range [0,%d]", i, len(t.c)))
	}
	t.c = t.c[:i]
}

// Reset empties the table, retaining the backing array.
func (t *CSTable) Reset() { t.c = t.c[:0] }

// Clone returns a deep copy of the table.
func (t *CSTable) Clone() *CSTable {
	c := make([]float64, len(t.c))
	copy(c, t.c)
	return &CSTable{c: c}
}

// MemoryBytes returns the structural memory footprint of the table.
func (t *CSTable) MemoryBytes() int64 {
	return int64(24 + 8*cap(t.c))
}
