package kvstore

import (
	"slices"
	"sync"
	"testing"

	"platod2gl/internal/graph"
)

func TestSetGetFeatures(t *testing.T) {
	s := New()
	id := graph.MakeVertexID(1, 42)
	if _, ok := s.Features(id); ok {
		t.Fatal("empty store returned features")
	}
	f := []float32{1, 2, 3}
	s.SetFeatures(id, f)
	got, ok := s.Features(id)
	if !ok || len(got) != 3 || got[2] != 3 {
		t.Fatalf("Features = %v,%v", got, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestLabels(t *testing.T) {
	s := New()
	id := graph.MakeVertexID(0, 7)
	if _, ok := s.Label(id); ok {
		t.Fatal("empty store returned a label")
	}
	s.SetLabel(id, 3)
	if l, ok := s.Label(id); !ok || l != 3 {
		t.Fatalf("Label = %d,%v", l, ok)
	}
}

// TestFeaturesAndLabelShareAnEntry: a vertex's features and label live in
// one entry but keep separate presence. A label-only vertex has no
// features and does not count in Len; FeaturesLabel reads nil and 0 for
// what is missing; RangeVertices reports each vertex once with what it
// holds; deleting the vertex removes both.
func TestFeaturesAndLabelShareAnEntry(t *testing.T) {
	s := New()
	labelOnly, featOnly, both := graph.MakeVertexID(0, 1), graph.MakeVertexID(0, 2), graph.MakeVertexID(0, 3)
	s.SetLabel(labelOnly, 5)
	s.SetFeatures(featOnly, []float32{1, 2})
	s.SetFeatures(both, []float32{3})
	s.SetLabel(both, 0)
	if _, ok := s.Features(labelOnly); ok {
		t.Fatal("a label-only vertex reports features")
	}
	if _, ok := s.Label(featOnly); ok {
		t.Fatal("a features-only vertex reports a label")
	}
	if f, l := s.FeaturesLabel(labelOnly); f != nil || l != 5 {
		t.Fatalf("FeaturesLabel(label only) = %v, %d", f, l)
	}
	if f, l := s.FeaturesLabel(featOnly); len(f) != 2 || l != 0 {
		t.Fatalf("FeaturesLabel(features only) = %v, %d", f, l)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (vertices with features)", s.Len())
	}
	seen := map[graph.VertexID]bool{}
	s.RangeVertices(func(id graph.VertexID, f []float32, l int32, hasLabel bool) bool {
		if seen[id] {
			t.Fatalf("RangeVertices reported %v twice", id)
		}
		seen[id] = true
		if want := id != featOnly; hasLabel != want {
			t.Fatalf("RangeVertices(%v): hasLabel %v, want %v", id, hasLabel, want)
		}
		return true
	})
	if len(seen) != 3 {
		t.Fatalf("RangeVertices reported %d vertices, want 3", len(seen))
	}
	x, labels := s.GatherFeaturesLabels([]graph.VertexID{both, labelOnly, featOnly}, 2)
	if want := []float32{3, 0, 0, 0, 1, 2}; !slices.Equal(x, want) || !slices.Equal(labels, []int32{0, 5, 0}) {
		t.Fatalf("GatherFeaturesLabels = %v, %v", x, labels)
	}
	s.DeleteVertex(both)
	if _, ok := s.Features(both); ok || s.Len() != 1 {
		t.Fatalf("after DeleteVertex: features present %v, Len %d", ok, s.Len())
	}
	if _, ok := s.Label(both); ok {
		t.Fatal("DeleteVertex left the label")
	}
}

func TestDeleteVertex(t *testing.T) {
	s := New()
	id := graph.MakeVertexID(0, 9)
	s.SetFeatures(id, []float32{1})
	s.SetLabel(id, 1)
	s.DeleteVertex(id)
	if _, ok := s.Features(id); ok {
		t.Fatal("features survived delete")
	}
	if _, ok := s.Label(id); ok {
		t.Fatal("label survived delete")
	}
}

func TestGatherFeatures(t *testing.T) {
	s := New()
	a := graph.MakeVertexID(0, 1)
	b := graph.MakeVertexID(0, 2)
	missing := graph.MakeVertexID(0, 3)
	s.SetFeatures(a, []float32{1, 2})
	s.SetFeatures(b, []float32{3, 4})
	m := s.GatherFeatures([]graph.VertexID{a, missing, b}, 2)
	want := []float32{1, 2, 0, 0, 3, 4}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("GatherFeatures = %v, want %v", m, want)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				id := graph.MakeVertexID(graph.VertexType(g), uint64(i))
				s.SetFeatures(id, []float32{float32(i)})
				s.SetLabel(id, int32(i))
				if f, ok := s.Features(id); !ok || f[0] != float32(i) {
					t.Errorf("lost features for %v", id)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 8*5000 {
		t.Fatalf("Len = %d, want %d", s.Len(), 8*5000)
	}
}

func TestMemoryBytesGrows(t *testing.T) {
	s := New()
	before := s.MemoryBytes()
	for i := uint64(0); i < 1000; i++ {
		s.SetFeatures(graph.MakeVertexID(0, i), make([]float32, 64))
	}
	after := s.MemoryBytes()
	if after <= before || after < 1000*64*4 {
		t.Fatalf("MemoryBytes %d -> %d, expected growth >= payload", before, after)
	}
}

func TestEdgeFeatures(t *testing.T) {
	s := New()
	k := EdgeKey{Src: graph.MakeVertexID(0, 1), Dst: graph.MakeVertexID(1, 2), Type: 3}
	if _, ok := s.EdgeFeatures(k); ok {
		t.Fatal("empty store returned edge features")
	}
	s.SetEdgeFeatures(k, []float32{9, 8})
	f, ok := s.EdgeFeatures(k)
	if !ok || f[1] != 8 {
		t.Fatalf("EdgeFeatures = %v,%v", f, ok)
	}
	// Distinct type = distinct edge.
	k2 := k
	k2.Type = 4
	if _, ok := s.EdgeFeatures(k2); ok {
		t.Fatal("edge type not part of key")
	}
	s.DeleteEdgeFeatures(k)
	if _, ok := s.EdgeFeatures(k); ok {
		t.Fatal("edge features survived delete")
	}
}
