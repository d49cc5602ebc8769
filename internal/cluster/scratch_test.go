package cluster

import (
	"testing"

	"platod2gl/internal/graph"
)

// TestCoalesceScratchReuse runs a large fan-out and then small ones through
// one scratch: each must coalesce exactly, and forget must leave the map
// empty whether it deletes the ids or clears the map.
func TestCoalesceScratchReuse(t *testing.T) {
	const shards = 3
	s := &coalesceScratch{
		partIDs: make([][]graph.VertexID, shards),
		partOcc: make([][][]int, shards),
		uniqOf:  make(map[graph.VertexID]int),
	}
	for round, n := range []int{4096, 7, 49, 4096, 1} {
		for p := range s.partIDs {
			s.partIDs[p] = s.partIDs[p][:0]
			s.partOcc[p] = s.partOcc[p][:0]
		}
		ids := make([]graph.VertexID, n)
		for i := range ids {
			ids[i] = graph.VertexID((i*7 + round) % (n/3 + 1))
		}
		distinct := map[graph.VertexID]bool{}
		for _, id := range ids {
			distinct[id] = true
		}
		if dups := s.coalesce(ids); dups != n-len(distinct) {
			t.Fatalf("round %d: %d dups, want %d", round, dups, n-len(distinct))
		}
		seen := 0
		for p := range s.partIDs {
			for j, id := range s.partIDs[p] {
				if ShardOf(id, shards) != p {
					t.Fatalf("round %d: id %d on shard %d", round, id, p)
				}
				for _, i := range s.partOcc[p][j] {
					if ids[i] != id {
						t.Fatalf("round %d: occurrence %d of id %d holds %d", round, i, id, ids[i])
					}
					seen++
				}
			}
		}
		if seen != n {
			t.Fatalf("round %d: %d occurrences, want %d", round, seen, n)
		}
		s.forget()
		if len(s.uniqOf) != 0 {
			t.Fatalf("round %d: %d ids left after forget", round, len(s.uniqOf))
		}
	}
}
