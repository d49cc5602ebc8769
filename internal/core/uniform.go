package core

import "math/rand"

// This file implements unweighted (uniform) neighbor sampling, the second
// sampling mode of Sec. II-B: every out-neighbor is drawn with probability
// 1/n_s. Internal nodes carry exact per-child neighbor counts, so a uniform
// draw is a count-guided descent with no floating point involved.

// SampleOneUniform draws one neighbor uniformly at random. Returns false on
// an empty tree.
func (t *Tree) SampleOneUniform(rng *rand.Rand) (uint64, bool) {
	if t.size == 0 {
		return 0, false
	}
	r := int32(rng.Intn(t.size))
	n := t.root
	for !n.isLeaf() {
		ci := 0
		for ; ci < len(n.counts); ci++ {
			if r < n.counts[ci] {
				break
			}
			r -= n.counts[ci]
		}
		if ci == len(n.counts) { // defensive: counts drifted (cannot happen)
			ci = len(n.counts) - 1
			r = n.counts[ci] - 1
		}
		n = n.children[ci]
	}
	return n.ids.Get(int(r)), true
}

// AppendUniform draws k neighbors of t uniformly with replacement and
// appends them to dst, or none when t is empty.
func AppendUniform[T ~uint64](t *Tree, rng *rand.Rand, k int, dst []T) []T {
	if t.size == 0 {
		return dst
	}
	for i := 0; i < k; i++ {
		v, _ := t.SampleOneUniform(rng)
		dst = append(dst, T(v))
	}
	return dst
}
