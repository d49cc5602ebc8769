// Pooled per-fan-out coalescing scratch. Every sampling / degree / feature
// fan-out used to allocate its per-shard partition slices and the id
// coalescing map afresh, and those allocations were the client hot path's
// dominant source of GC pressure.
// The pool recycles the whole scratch structure, so a steady-state training
// loop's fan-outs run allocation-free on the client side.
//
// Safety: scratch slices are referenced by the args structs handed to the
// transport, which encodes args synchronously inside Call, so by the time a
// fan-out returns no reference survives.
package cluster

import (
	"slices"
	"sync"

	"platod2gl/internal/graph"
)

// coalesceScratch is the coalescing state of one id fan-out
// (SampleNeighbors, Degree, Features): each shard's distinct ids, and for
// each distinct id the run of its positions in the caller's list. Multi-hop
// frontiers and the feature lists built from them repeat vertices heavily,
// so each shard is asked for every distinct id once and each reply slot is
// scattered back to all of its occurrences.
//
// An open-addressing table of int32 slots gives each position its distinct
// id, in first-occurrence order; a counting sort lays the distinct ids out
// shard by shard, and a second one lists each id's positions, as
// sampler.hop.group and gnn.dedupe do. Every buffer is sized to the call,
// so clearing the table costs what the call used, however large a fan-out
// the pooled scratch served before.
type coalesceScratch struct {
	table  []int32          // 1 + the id's index in first; 0 is empty
	first  []graph.VertexID // distinct ids in first-occurrence order
	shard  []int32          // shard of first[d]
	count  []int32          // occurrences of first[d]
	rank   []int32          // first[d]'s index in ids
	of     []int32          // of[i] is position i's index in first
	ids    []graph.VertexID // distinct ids grouped by shard, first occurrence first
	starts []int            // shard p's ids are ids[starts[p]:starts[p+1]]
	bounds []int32          // the run of ids[k] is occ[bounds[k]:bounds[k+1]]
	occ    []int32          // caller positions grouped by id, each run ascending
}

var coalesceScratchPool = sync.Pool{New: func() any { return new(coalesceScratch) }}

// occRuns are one shard's occurrence runs: run j lists the positions of the
// caller's list that hold the shard's j-th distinct id.
type occRuns struct {
	occ    []int32
	bounds []int32 // run j is occ[bounds[j]:bounds[j+1]]
}

// len is the number of runs.
func (r occRuns) len() int { return max(len(r.bounds)-1, 0) }

// run returns run j.
func (r occRuns) run(j int) []int32 { return r.occ[r.bounds[j]:r.bounds[j+1]] }

// getCoalesceScratch returns a pooled scratch for a fan-out over shards.
// Hand it back with release once the fan-out is done.
func getCoalesceScratch(shards int) *coalesceScratch {
	s := coalesceScratchPool.Get().(*coalesceScratch)
	s.starts = slices.Grow(s.starts[:0], shards+1)[:shards+1]
	return s
}

// release returns the scratch to the pool.
func (s *coalesceScratch) release() { coalesceScratchPool.Put(s) }

// part returns shard p's distinct ids and their occurrence runs.
func (s *coalesceScratch) part(p int) ([]graph.VertexID, occRuns) {
	lo, hi := s.starts[p], s.starts[p+1]
	return s.ids[lo:hi], occRuns{occ: s.occ, bounds: s.bounds[lo : hi+1]}
}

// coalesce partitions ids across the scratch's shards, keeping each
// distinct id once, in first-occurrence order within its shard, and
// recording every occurrence's position. It returns how many duplicates it
// removed.
func (s *coalesceScratch) coalesce(ids []graph.VertexID) (dups int) {
	shards := len(s.starts) - 1
	n := len(ids)
	size := 1
	for size < 2*n {
		size <<= 1
	}
	s.table = slices.Grow(s.table[:0], size)[:size]
	clear(s.table)
	mask := uint64(size - 1)
	// There are at most n distinct ids, so nothing grows in the loop.
	first, shard, count := slices.Grow(s.first[:0], n), slices.Grow(s.shard[:0], n), slices.Grow(s.count[:0], n)
	s.of = slices.Grow(s.of[:0], n)[:n]
	clear(s.starts)
	for i, id := range ids {
		at := mix(uint64(id)) & mask
		for s.table[at] != 0 && first[s.table[at]-1] != id {
			at = (at + 1) & mask
		}
		if s.table[at] == 0 {
			p := ShardOf(id, shards)
			first = append(first, id)
			shard = append(shard, int32(p))
			count = append(count, 0)
			s.starts[p+1]++
			s.table[at] = int32(len(first))
		}
		d := s.table[at] - 1
		s.of[i] = d
		count[d]++
	}
	nd := len(first)
	for p := 0; p < shards; p++ {
		s.starts[p+1] += s.starts[p]
	}
	// Counting sort of the distinct ids by shard: placing an id advances
	// its shard's cursor. bounds[k+1] holds run k's length until the
	// prefix sum below.
	s.rank = slices.Grow(s.rank[:0], nd)[:nd]
	s.ids = slices.Grow(s.ids[:0], nd)[:nd]
	s.bounds = slices.Grow(s.bounds[:0], nd+1)[:nd+1]
	s.bounds[0] = 0
	for d, id := range first {
		p := shard[d]
		k := s.starts[p]
		s.starts[p]++
		s.rank[d] = int32(k)
		s.ids[k] = id
		s.bounds[k+1] = count[d]
	}
	// The cursors ended at each shard's end: shift them back to starts.
	copy(s.starts[1:], s.starts[:shards])
	s.starts[0] = 0
	// Counting sort of the positions by id: bounds[k+1] starts as run k's
	// start and ends as its end, which is run k+1's start.
	at := int32(0)
	for k := 1; k <= nd; k++ {
		m := s.bounds[k]
		s.bounds[k] = at
		at += m
	}
	s.occ = slices.Grow(s.occ[:0], n)[:n]
	for i, d := range s.of {
		k := s.rank[d] + 1
		s.occ[s.bounds[k]] = int32(i)
		s.bounds[k]++
	}
	s.first, s.shard, s.count = first, shard, count
	return n - nd
}
