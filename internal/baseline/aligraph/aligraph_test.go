package aligraph

import (
	"math/rand"
	"testing"

	"platod2gl/internal/graph"
	"platod2gl/internal/storage"
	"platod2gl/internal/storetest"
)

func TestConformance(t *testing.T) {
	storetest.Run(t, func() storage.TopologyStore { return New(Options{}) })
}

// draw takes k weighted samples of src's neighbors under relation 0.
func draw(s *Store, src graph.VertexID, k int, rng *rand.Rand) []graph.VertexID {
	return s.SampleFrontier([]graph.VertexID{src}, 0, []int{k}, false, rng, nil, make([]int, 1))
}

func TestAliasRebuildAfterUpdate(t *testing.T) {
	s := New(Options{})
	s.AddEdge(graph.Edge{Src: 1, Dst: 10, Weight: 1})
	s.AddEdge(graph.Edge{Src: 1, Dst: 20, Weight: 1})
	// Skew the weights heavily and verify sampling follows.
	s.UpdateWeight(1, 10, 0, 1000)
	s.UpdateWeight(1, 20, 0, 1)
	rng := newRng()
	counts := map[graph.VertexID]int{}
	for _, id := range draw(s, 1, 10000, rng) {
		counts[id]++
	}
	if counts[10] < 9500 {
		t.Fatalf("sampling ignores updated weights: %v", counts)
	}
}

func TestDuplicatedTopologyCostsMemory(t *testing.T) {
	// AliGraph keeps adjacency + index + alias: must cost more per edge
	// than raw id+weight storage.
	s := New(Options{})
	const n = 10000
	for i := uint64(0); i < n; i++ {
		s.AddEdge(graph.Edge{Src: graph.VertexID(i % 20), Dst: graph.VertexID(i), Weight: 1})
	}
	raw := int64(n * 16) // id + weight
	if s.MemoryBytes() < 2*raw {
		t.Fatalf("MemoryBytes = %d, expected > 2x raw %d (duplicated topology)", s.MemoryBytes(), raw)
	}
}

func TestZeroWeightSourceSamplesNothing(t *testing.T) {
	s := New(Options{})
	s.AddEdge(graph.Edge{Src: 1, Dst: 2, Weight: 0})
	rng := newRng()
	if out := draw(s, 1, 5, rng); len(out) != 0 {
		t.Fatalf("sampled from all-zero-weight source: %v", out)
	}
}

func BenchmarkAddEdgeWithRebuild(b *testing.B) {
	s := New(Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AddEdge(graph.Edge{Src: graph.VertexID(i % 100), Dst: graph.VertexID(i), Weight: 1})
	}
}
