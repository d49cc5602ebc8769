// Pooled per-fan-out coalescing scratch. The pool recycles the whole
// scratch structure, so a steady-state training loop's fan-outs run
// allocation-free on the client side.
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
// A graph.Grouping gives each position its distinct id, in first-occurrence
// order; a counting sort lays the distinct ids out shard by shard, and the
// grouping's runs, relabelled to that order, list each id's positions.
type coalesceScratch struct {
	graph.Grouping                  // the caller's ids; coalesce relabels Of and the runs to ids' order
	rank           []int32          // IDs[d]'s shard, then its index in ids
	ids            []graph.VertexID // distinct ids grouped by shard, first occurrence first
	starts         []int            // shard p's ids are ids[starts[p]:starts[p+1]]
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

// busy reports whether shard p has any id.
func (s *coalesceScratch) busy(p int) bool { return s.starts[p] < s.starts[p+1] }

// part returns shard p's distinct ids and their occurrence runs.
func (s *coalesceScratch) part(p int) ([]graph.VertexID, occRuns) {
	lo, hi := s.starts[p], s.starts[p+1]
	return s.ids[lo:hi], occRuns{occ: s.Occ, bounds: s.Bounds[lo : hi+1]}
}

// coalesce partitions ids across the scratch's shards, keeping each
// distinct id once, in first-occurrence order within its shard, and
// recording every occurrence's position. It returns how many duplicates it
// removed.
func (s *coalesceScratch) coalesce(ids []graph.VertexID) (dups int) {
	shards := len(s.starts) - 1
	s.Reset(len(ids))
	s.Add(ids)
	nd := len(s.IDs)
	s.rank = slices.Grow(s.rank[:0], nd)[:nd]
	clear(s.starts)
	for d, id := range s.IDs {
		p := ShardOf(id, shards)
		s.rank[d] = int32(p)
		s.starts[p+1]++
	}
	for p := 0; p < shards; p++ {
		s.starts[p+1] += s.starts[p]
	}
	// Counting sort of the distinct ids by shard: placing an id advances
	// its shard's cursor.
	s.ids = slices.Grow(s.ids[:0], nd)[:nd]
	for d, id := range s.IDs {
		p := s.rank[d]
		k := s.starts[p]
		s.starts[p]++
		s.rank[d] = int32(k)
		s.ids[k] = id
	}
	// The cursors ended at each shard's end: shift them back to starts.
	copy(s.starts[1:], s.starts[:shards])
	s.starts[0] = 0
	// Relabelled to ids' order, the runs of each shard's ids are adjacent.
	for i, d := range s.Of {
		s.Of[i] = s.rank[d]
	}
	s.Runs()
	return len(ids) - nd
}
