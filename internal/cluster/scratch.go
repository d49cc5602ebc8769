// Pooled per-fan-out coalescing scratch. Every sampling / degree / feature
// fan-out used to allocate its per-shard partition slices and the id
// coalescing map afresh, and those allocations were the client hot path's
// dominant source of GC pressure.
// The pool recycles the whole scratch structure, including the inner
// per-shard slices and occurrence lists, so a steady-state training loop's
// fan-outs run allocation-free on the client side.
//
// Safety: scratch slices are referenced by the args structs handed to the
// transport, which encodes args synchronously inside Call, so by the time a
// fan-out returns no reference survives.
package cluster

import (
	"sync"

	"platod2gl/internal/graph"
)

// coalesceScratch is the coalescing state of one id fan-out
// (SampleNeighbors, Degree, Features/Labels): each shard's distinct ids,
// and for each distinct id the indices of all its occurrences in the
// caller's list. Multi-hop frontiers and the feature lists built from them
// repeat vertices heavily, so each shard is asked for every distinct id
// once and each reply slot is scattered back to all of its occurrences.
type coalesceScratch struct {
	partIDs [][]graph.VertexID     // distinct ids per shard
	partOcc [][][]int              // original indices per distinct id
	uniqOf  map[graph.VertexID]int // id -> index within its shard slice
	peak    int                    // the most ids uniqOf has held
}

var coalesceScratchPool = sync.Pool{New: func() any {
	return &coalesceScratch{uniqOf: make(map[graph.VertexID]int)}
}}

// getCoalesceScratch returns a scratch sized for shards, with inner slices
// emptied but their capacity retained. Hand it back with release once the
// fan-out is done.
func getCoalesceScratch(shards int) *coalesceScratch {
	s := coalesceScratchPool.Get().(*coalesceScratch)
	if cap(s.partIDs) < shards {
		s.partIDs = make([][]graph.VertexID, shards)
		s.partOcc = make([][][]int, shards)
	}
	s.partIDs = s.partIDs[:shards]
	s.partOcc = s.partOcc[:shards]
	for p := range s.partIDs {
		s.partIDs[p] = s.partIDs[p][:0]
		s.partOcc[p] = s.partOcc[p][:0]
	}
	return s
}

// release empties the scratch and returns it to the pool.
func (s *coalesceScratch) release() {
	s.forget()
	coalesceScratchPool.Put(s)
}

// forget empties uniqOf. A map keeps the room of the most ids it ever
// held, and clear pays for all of that room: a scratch that once coalesced
// a training batch or an index warm-up would charge every later small
// fan-out for it, at a cost that depends on which scratch the pool hands
// out. A fan-out far smaller than the peak deletes its own ids instead, so
// it pays for what it used.
func (s *coalesceScratch) forget() {
	n := len(s.uniqOf)
	s.peak = max(s.peak, n)
	if n*8 < s.peak {
		for _, ids := range s.partIDs {
			for _, id := range ids {
				delete(s.uniqOf, id)
			}
		}
	} else {
		clear(s.uniqOf)
	}
}

// coalesce partitions ids across the scratch's shards, keeping each
// distinct id once and recording every occurrence's index, and returns how
// many duplicates it removed.
func (s *coalesceScratch) coalesce(ids []graph.VertexID) (dups int) {
	shards := len(s.partIDs)
	for i, id := range ids {
		p := ShardOf(id, shards)
		j, ok := s.uniqOf[id]
		if !ok {
			j = len(s.partIDs[p])
			s.uniqOf[id] = j
			s.partIDs[p] = append(s.partIDs[p], id)
			s.addOcc(p)
		} else {
			dups++
		}
		s.partOcc[p][j] = append(s.partOcc[p][j], i)
	}
	return dups
}

// addOcc grows shard p's occurrence list by one reused (emptied) slot.
func (s *coalesceScratch) addOcc(p int) {
	occ := s.partOcc[p]
	if len(occ) < cap(occ) {
		occ = occ[:len(occ)+1]
		occ[len(occ)-1] = occ[len(occ)-1][:0]
	} else {
		occ = append(occ, nil)
	}
	s.partOcc[p] = occ
}
