// Pooled per-fan-out scratch state. Every sampling / degree / feature
// fan-out used to allocate its per-shard partition slices and the seed
// coalescing map afresh, and those allocations were the client hot path's
// dominant source of GC pressure.
// The pools recycle the whole scratch structure, including the inner
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

// sampleScratch is the coalescing state of one SampleNeighbors fan-out.
type sampleScratch struct {
	partSeeds [][]graph.VertexID     // distinct seeds per shard
	partOcc   [][][]int              // original indices per distinct seed
	uniqOf    map[graph.VertexID]int // seed -> index within its shard slice
}

var sampleScratchPool = sync.Pool{New: func() any {
	return &sampleScratch{uniqOf: make(map[graph.VertexID]int)}
}}

// getSampleScratch returns a scratch sized for shards, with inner slices
// emptied but their capacity retained.
func getSampleScratch(shards int) *sampleScratch {
	s := sampleScratchPool.Get().(*sampleScratch)
	if cap(s.partSeeds) < shards {
		s.partSeeds = make([][]graph.VertexID, shards)
		s.partOcc = make([][][]int, shards)
	}
	s.partSeeds = s.partSeeds[:shards]
	s.partOcc = s.partOcc[:shards]
	for p := range s.partSeeds {
		s.partSeeds[p] = s.partSeeds[p][:0]
		s.partOcc[p] = s.partOcc[p][:0]
	}
	clear(s.uniqOf)
	return s
}

// addOcc grows shard p's occurrence list by one reused (emptied) slot and
// returns its index.
func (s *sampleScratch) addOcc(p int) int {
	occ := s.partOcc[p]
	if len(occ) < cap(occ) {
		occ = occ[:len(occ)+1]
		occ[len(occ)-1] = occ[len(occ)-1][:0]
	} else {
		occ = append(occ, nil)
	}
	s.partOcc[p] = occ
	return len(occ) - 1
}

// fanoutScratch is the partitioning state of a Degree/Features fan-out:
// per-shard node slices plus the original index of each partitioned node.
type fanoutScratch struct {
	partNodes [][]graph.VertexID
	partIdx   [][]int
}

var fanoutScratchPool = sync.Pool{New: func() any { return new(fanoutScratch) }}

// getFanoutScratch returns a scratch sized for shards with emptied inner
// slices.
func getFanoutScratch(shards int) *fanoutScratch {
	s := fanoutScratchPool.Get().(*fanoutScratch)
	if cap(s.partNodes) < shards {
		s.partNodes = make([][]graph.VertexID, shards)
		s.partIdx = make([][]int, shards)
	}
	s.partNodes = s.partNodes[:shards]
	s.partIdx = s.partIdx[:shards]
	for p := range s.partNodes {
		s.partNodes[p] = s.partNodes[p][:0]
		s.partIdx[p] = s.partIdx[p][:0]
	}
	return s
}

// add partitions node i into shard p.
func (s *fanoutScratch) add(p int, n graph.VertexID, i int) {
	s.partNodes[p] = append(s.partNodes[p], n)
	s.partIdx[p] = append(s.partIdx[p], i)
}
