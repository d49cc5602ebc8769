// Package fenwick implements the FSTable (Fenwick-tree Sum Table) and the
// FTS (Fenwick Tree-based Sampling) method of the PlatoD2GL paper (Sec. V).
//
// An FSTable over a weight array A of n elements is an array F of n elements
// where, per Eq. (4) of the paper,
//
//	F[i] = sum_{j=g(i)+1}^{i} A[j],  g(i) = i - LSB(i+1),
//
// and LSB(x) is the value of the lowest set bit of x. This is a 0-indexed
// binary indexed tree. Unlike the CSTable used by PlatoGL (strict prefix
// sums, O(n) per update), the FSTable supports in-place weight updates,
// append-style insertion and swap-deletion in O(log n) each (Table II of the
// paper), while weighted sampling stays O(log n).
//
// Raw weights are not stored: a single element can be read back in O(log n)
// (Weight) and the whole array reconstructed in O(n) total (Weights), so the
// structure costs exactly one float64 per neighbor, like a plain weight list.
package fenwick

import (
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"platod2gl/internal/prefetch"
)

// FSTable is a Fenwick-tree sum table over a sequence of non-negative edge
// weights. The zero value is an empty table ready to use.
//
// FSTable is not safe for concurrent mutation; the samtree layer serializes
// writers per tree (see internal/palm).
type FSTable struct {
	f []float64
}

// lsb returns the value of the lowest set bit of x (x > 0).
func lsb(x int) int { return x & (-x) }

// New builds an FSTable from raw weights in O(n) time.
func New(weights []float64) *FSTable {
	t := Make(weights)
	return &t
}

// Make is New returning the table by value, for a struct that holds its
// FSTable in place.
func Make(weights []float64) FSTable {
	t := FSTable{f: make([]float64, 0, len(weights))}
	for _, w := range weights {
		t.Append(w)
	}
	return t
}

// NewWithCapacity returns an empty FSTable whose backing array can hold c
// elements without reallocation.
func NewWithCapacity(c int) *FSTable {
	return &FSTable{f: make([]float64, 0, c)}
}

// Len returns the number of weights in the table.
func (t *FSTable) Len() int { return len(t.f) }

// Total returns the sum of all weights (procedure getAllSum of Algorithm 5):
// it walks the Fenwick roots in O(log n).
func (t *FSTable) Total() float64 {
	s := 0.0
	for i := len(t.f); i > 0; i -= lsb(i) {
		s += t.f[i-1]
	}
	return s
}

// Prefetch starts loading the first cache line of the Fenwick array.
func (t *FSTable) Prefetch() {
	if len(t.f) > 0 {
		prefetch.Line(unsafe.Pointer(&t.f[0]))
	}
}

// Prefix returns the sum of weights with indices in [0, i]. It panics if i is
// out of range. Runs in O(log n).
func (t *FSTable) Prefix(i int) float64 {
	if i < 0 || i >= len(t.f) {
		panic(fmt.Sprintf("fenwick: Prefix index %d out of range [0,%d)", i, len(t.f)))
	}
	s := 0.0
	for j := i + 1; j > 0; j -= lsb(j) {
		s += t.f[j-1]
	}
	return s
}

// Weight returns the raw weight at index i in O(log n). It exploits that
// F[i] covers the range [g(i)+1, i]: subtracting the Fenwick entries covering
// [g(i)+1, i-1] leaves exactly A[i].
func (t *FSTable) Weight(i int) float64 {
	if i < 0 || i >= len(t.f) {
		panic(fmt.Sprintf("fenwick: Weight index %d out of range [0,%d)", i, len(t.f)))
	}
	v := t.f[i]
	bottom := i - lsb(i+1) // g(i)
	for j := i - 1; j != bottom; j -= lsb(j + 1) {
		v -= t.f[j]
	}
	return v
}

// Add adds delta to the weight at index i, updating all covering Fenwick
// entries (Algorithm 3 of the paper). Runs in O(log n).
func (t *FSTable) Add(i int, delta float64) {
	if i < 0 || i >= len(t.f) {
		panic(fmt.Sprintf("fenwick: Add index %d out of range [0,%d)", i, len(t.f)))
	}
	for ; i < len(t.f); i += lsb(i + 1) {
		t.f[i] += delta
	}
}

// Update sets the weight at index i to w (the paper's "in-place update").
// Runs in O(log n).
func (t *FSTable) Update(i int, w float64) {
	t.Add(i, w-t.Weight(i))
}

// Append inserts a new weight at the end of the table (Algorithm 4 of the
// paper). The new Fenwick entry is the weight plus the entries of its
// Fenwick children, all of which already exist. Runs in O(log n).
func (t *FSTable) Append(w float64) {
	n := len(t.f)
	s := w
	// The children of 1-indexed position n+1 are (n+1)-2^k for 2^k < LSB(n+1).
	for step := 1; step < lsb(n+1); step <<= 1 {
		s += t.f[n-step]
	}
	t.f = append(t.f, s)
}

// Delete removes the weight at index i using the paper's swap-delete: the
// last element's weight overwrites position i (updating its Fenwick parents),
// then the last Fenwick entry is dropped — no entry with a smaller index
// covers position n-1, so truncation is exact. Runs in O(log n).
// The caller must apply the same swap to any parallel ID list.
func (t *FSTable) Delete(i int) {
	n := len(t.f)
	if i < 0 || i >= n {
		panic(fmt.Sprintf("fenwick: Delete index %d out of range [0,%d)", i, n))
	}
	if i != n-1 {
		t.Update(i, t.Weight(n-1))
	}
	t.f = t.f[:n-1]
}

// Sample performs the FTS search (Algorithm 5): it returns the smallest index
// p such that the strict prefix sum through p exceeds r. r must lie in
// [0, Total()); values at or beyond Total() clamp to the last index. Sampling
// with r drawn uniformly from [0, Total()) selects index i with probability
// weight(i)/Total(). Returns -1 on an empty table. O(log n).
func (t *FSTable) Sample(r float64) int {
	rs := [1]float64{r}
	var out [1]int
	t.SampleMany(rs[:], out[:])
	return out[0]
}

// SampleMany runs the Sample search for every rs[i], writing its index to
// out[i]. rs is overwritten with the residuals the search leaves behind.
//
// The search walks a virtual complete binary tree of size 2^m >= n: by the
// sub-tree-sum property (Theorem 4), the entry F[p+s-1] at the midpoint of an
// aligned range [p, p+2s) holds exactly the total weight of the range's left
// half [p, p+s), so each level either keeps p or subtracts F[p+s-1] and
// advances p by s (searchStep). All draws advance one level at a time, so
// their independent load-compare-subtract chains overlap.
func (t *FSTable) SampleMany(rs []float64, out []int) {
	f := t.f
	n := len(f)
	out = out[:len(rs)]
	if n == 0 {
		for i := range out {
			out[i] = -1
		}
		return
	}
	for i := range out {
		out[i] = 0
	}
	for step := firstStep(n); step > 0; step >>= 1 {
		for i, p := range out {
			out[i], rs[i] = searchStep(f, p, step, rs[i])
		}
	}
	// p reaches n only when r >= Total().
	for i, p := range out {
		out[i] = min(p, n-1)
	}
}

// SampleEach is SampleMany with draw i searching its own table ts[i]: the
// draws still advance level by level together, so draws that land in
// different samtree leaves overlap their searches. Every table must be
// non-empty.
func SampleEach(ts []*FSTable, rs []float64, out []int) {
	out = out[:len(ts)]
	rs = rs[:len(ts)]
	top := 0
	for i, t := range ts {
		top = max(top, firstStep(len(t.f)))
		out[i] = 0
	}
	for step := top; step > 0; step >>= 1 {
		for i, t := range ts {
			out[i], rs[i] = searchStep(t.f, out[i], step, rs[i])
		}
	}
	for i, t := range ts {
		out[i] = min(out[i], len(t.f)-1)
	}
}

// searchStep takes one level of the Sample search in f: from position p with
// residual r, it advances p by step, subtracting F[p+step-1], when that entry
// is covered by r. Whether to advance is computed as a 0/1 value rather than
// branched on, since the comparison is a coin flip the branch predictor
// cannot learn. Besides next <= len(f), advancing needs step < len(f), which
// holds from f's own first step down, so a table with fewer levels than
// SampleEach's largest sits the extra levels out; max folds the two bounds
// into one comparison, which keeps searchStep small enough to inline.
func searchStep(f []float64, p, step int, r float64) (int, float64) {
	next := p + step
	v := f[min(next, len(f))-1]
	take := b2i(max(next, step+1) <= len(f)) & b2i(v <= r)
	return p + step*take, r - masked(v, take)
}

// firstStep is the search's first step for n entries: half the smallest
// power of two >= n, the midpoint of Algorithm 5's first range.
func firstStep(n int) int { return 1 << bits.Len(uint(n-1)) >> 1 }

// b2i converts a comparison to 0 or 1 without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// masked returns v when take is 1 and +0 when it is 0. Masking v's bits keeps
// an integer-to-float conversion and a multiply off the residual's
// dependency chain, which is what a single draw waits on at every level.
func masked(v float64, take int) float64 {
	return math.Float64frombits(math.Float64bits(v) & -uint64(take))
}

// Weights reconstructs the raw weight array in O(n) total: every index is
// the Fenwick child of exactly one covering entry, so subtracting each
// entry's children costs amortized O(1) per element.
func (t *FSTable) Weights() []float64 {
	out := make([]float64, len(t.f))
	for i := range t.f {
		v := t.f[i]
		for step := 1; step < lsb(i+1); step <<= 1 {
			v -= t.f[i-step]
		}
		out[i] = v
	}
	return out
}

// Reset empties the table, retaining the backing array.
func (t *FSTable) Reset() { t.f = t.f[:0] }

// Clone returns a deep copy of the table.
func (t *FSTable) Clone() *FSTable {
	f := make([]float64, len(t.f))
	copy(f, t.f)
	return &FSTable{f: f}
}

// MemoryBytes returns the structural memory footprint of the table: the
// slice header plus the backing array.
func (t *FSTable) MemoryBytes() int64 {
	return int64(24 + 8*cap(t.f))
}
