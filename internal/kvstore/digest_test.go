package kvstore

import (
	"math/rand"
	"testing"

	"platod2gl/internal/graph"
)

// applyOps performs a fixed set of attribute writes in the given order.
func applyOps(s *Store, order []int) {
	type op func(*Store)
	ops := []op{
		func(s *Store) { s.SetFeatures(1, []float32{1, 2, 3}) },
		func(s *Store) { s.SetFeatures(2, []float32{4, 5}) },
		func(s *Store) { s.SetLabel(1, 7) },
		func(s *Store) { s.SetLabel(3, -1) },
		func(s *Store) { s.SetEdgeFeatures(EdgeKey{Src: 1, Dst: 2, Type: 0}, []float32{0.5}) },
		func(s *Store) { s.SetEdgeFeatures(EdgeKey{Src: 2, Dst: 1, Type: 1}, []float32{0.25, 0.75}) },
		func(s *Store) { s.SetFeatures(9, []float32{9}) },
	}
	for _, i := range order {
		ops[i](s)
	}
}

// TestDigestOrderIndependent: the digest depends on final state, not on the
// order writes arrived — replicas apply fan-out writes in different
// interleavings and must still digest equal.
func TestDigestOrderIndependent(t *testing.T) {
	a, b := New(), New()
	applyOps(a, []int{0, 1, 2, 3, 4, 5, 6})
	applyOps(b, []int{6, 4, 2, 0, 5, 3, 1})
	if a.Digest() != b.Digest() {
		t.Fatalf("digests differ across apply orders: %x vs %x", a.Digest(), b.Digest())
	}
	if a.Digest() == 0 {
		t.Fatal("digest of a non-empty store is 0")
	}
}

// TestDigestIncrementalMatchesRecompute: the incrementally maintained digest
// must equal a from-scratch recomputation (DigestWhere over everything)
// after a random churn of sets, overwrites, and deletes.
func TestDigestIncrementalMatchesRecompute(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		id := graph.VertexID(rng.Intn(100))
		switch rng.Intn(6) {
		case 0, 1:
			f := make([]float32, 1+rng.Intn(4))
			for j := range f {
				f[j] = rng.Float32()
			}
			s.SetFeatures(id, f)
		case 2:
			s.SetLabel(id, int32(rng.Intn(10)))
		case 3:
			k := EdgeKey{Src: id, Dst: graph.VertexID(rng.Intn(100)), Type: graph.EdgeType(rng.Intn(2))}
			s.SetEdgeFeatures(k, []float32{rng.Float32()})
		case 4:
			k := EdgeKey{Src: id, Dst: graph.VertexID(rng.Intn(100)), Type: graph.EdgeType(rng.Intn(2))}
			s.DeleteEdgeFeatures(k)
		case 5:
			s.DeleteVertex(id)
		}
	}
	want := s.DigestWhere(func(graph.VertexID) bool { return true })
	if got := s.Digest(); got != want {
		t.Fatalf("incremental digest %x != recomputed %x", got, want)
	}
}

// TestDigestDetectsDivergence: two stores that differ in exactly one entry
// digest differently; converging the entry restores equality.
func TestDigestDetectsDivergence(t *testing.T) {
	a, b := New(), New()
	applyOps(a, []int{0, 1, 2, 3, 4, 5, 6})
	applyOps(b, []int{0, 1, 2, 3, 4, 5, 6})
	b.SetFeatures(2, []float32{4, 5.000001}) // one float differs
	if a.Digest() == b.Digest() {
		t.Fatal("digest failed to detect a single-float divergence")
	}
	b.SetFeatures(2, []float32{4, 5})
	if a.Digest() != b.Digest() {
		t.Fatal("digests differ after convergence")
	}
}

// TestDigestDeleteRestoresBaseline: adding then deleting an entry returns
// the digest to its prior value (XOR round-trip), and Reset zeroes it.
func TestDigestDeleteRestoresBaseline(t *testing.T) {
	s := New()
	s.SetFeatures(1, []float32{1})
	base := s.Digest()
	s.SetLabel(5, 3)
	s.SetEdgeFeatures(EdgeKey{Src: 5, Dst: 6}, []float32{2})
	if s.Digest() == base {
		t.Fatal("digest unchanged by new entries")
	}
	s.DeleteVertex(5)
	s.DeleteEdgeFeatures(EdgeKey{Src: 5, Dst: 6})
	if s.Digest() != base {
		t.Fatalf("digest %x after delete, want baseline %x", s.Digest(), base)
	}
	s.Reset()
	if s.Digest() != 0 || s.Len() != 0 {
		t.Fatalf("post-Reset digest=%x len=%d, want 0/0", s.Digest(), s.Len())
	}
}

// TestDigestWhereSubset: DigestWhere partitions cleanly — the XOR of the
// per-partition digests equals the whole-store digest.
func TestDigestWhereSubset(t *testing.T) {
	s := New()
	applyOps(s, []int{0, 1, 2, 3, 4, 5, 6})
	even := s.DigestWhere(func(id graph.VertexID) bool { return id%2 == 0 })
	odd := s.DigestWhere(func(id graph.VertexID) bool { return id%2 == 1 })
	if even^odd != s.Digest() {
		t.Fatalf("partition digests %x^%x != whole %x", even, odd, s.Digest())
	}
}

// TestDigestGolden pins Digest and DigestWhere of a fixed store: label-only,
// features-only and labeled vertices with features, an edge row and a
// deleted vertex. Replicas of different builds compare these digests, so a
// change to the store's layout must not move them.
func TestDigestGolden(t *testing.T) {
	s := New()
	for i := 0; i < 50; i++ {
		id := graph.MakeVertexID(0, uint64(i))
		if i%3 != 0 {
			s.SetFeatures(id, []float32{float32(i), float32(i) / 2})
		}
		if i%2 == 0 {
			s.SetLabel(id, int32(i%7))
		}
	}
	s.SetEdgeFeatures(EdgeKey{Src: 1, Dst: 2}, []float32{9})
	s.DeleteVertex(graph.MakeVertexID(0, 4))
	if d := s.Digest(); d != 0x51dac38b9c35c9f3 {
		t.Errorf("Digest = %#x, want 0x51dac38b9c35c9f3", d)
	}
	if d := s.DigestWhere(func(id graph.VertexID) bool { return id%2 == 0 }); d != 0xa1ef22c88ccad491 {
		t.Errorf("DigestWhere(even ids) = %#x, want 0xa1ef22c88ccad491", d)
	}
}
