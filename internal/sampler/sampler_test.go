package sampler

import (
	"math/rand"
	"testing"

	"platod2gl/internal/core"
	"platod2gl/internal/graph"
	"platod2gl/internal/storage"
)

func buildStore(t testing.TB) *storage.DynamicStore {
	t.Helper()
	s := storage.NewDynamicStore(storage.Options{Tree: core.Options{Capacity: 16}})
	// Relation 0: vertices 0..99 each with 20 neighbors.
	for src := uint64(0); src < 100; src++ {
		for j := uint64(0); j < 20; j++ {
			s.AddEdge(graph.Edge{
				Src: graph.VertexID(src), Dst: graph.VertexID(1000 + src*20 + j),
				Type: 0, Weight: float64(j + 1),
			})
		}
	}
	// Relation 1: second-hop edges from the 1000.. range.
	for src := uint64(1000); src < 3000; src++ {
		for j := uint64(0); j < 5; j++ {
			s.AddEdge(graph.Edge{
				Src: graph.VertexID(src), Dst: graph.VertexID(10000 + src*5 + j),
				Type: 1, Weight: 1,
			})
		}
	}
	return s
}

func TestSampleNodes(t *testing.T) {
	s := New(buildStore(t), Options{Seed: 1})
	rng := rand.New(rand.NewSource(2))
	nodes := s.SampleNodes(0, 50, rng)
	if len(nodes) != 50 {
		t.Fatalf("got %d nodes", len(nodes))
	}
	for _, n := range nodes {
		if uint64(n) >= 100 {
			t.Fatalf("sampled non-source node %v", n)
		}
	}
	if got := s.SampleNodes(7, 5, rng); got != nil {
		t.Fatalf("sampled from empty relation: %v", got)
	}
}

func TestSampleNeighborsShape(t *testing.T) {
	st := buildStore(t)
	for _, par := range []int{0, 4} {
		s := New(st, Options{Parallelism: par, Seed: 3})
		seeds := []graph.VertexID{0, 1, 2, 99}
		nb := s.SampleNeighbors(seeds, 0, 7)
		if len(nb.Neighbors) != len(seeds)*7 {
			t.Fatalf("par=%d: %d neighbors", par, len(nb.Neighbors))
		}
		for i, seed := range seeds {
			for j := 0; j < 7; j++ {
				got := nb.Neighbors[i*7+j]
				lo := 1000 + uint64(seed)*20
				if uint64(got) < lo || uint64(got) >= lo+20 {
					t.Fatalf("par=%d: seed %v sampled foreign neighbor %v", par, seed, got)
				}
			}
		}
	}
}

func TestSampleNeighborsSelfLoopFallback(t *testing.T) {
	st := storage.NewDynamicStore(storage.Options{})
	st.AddEdge(graph.Edge{Src: 1, Dst: 2, Weight: 1})
	s := New(st, Options{Seed: 1})
	// Seed 42 has no out-edges: all slots must fall back to itself.
	nb := s.SampleNeighbors([]graph.VertexID{42}, 0, 4)
	for _, id := range nb.Neighbors {
		if id != 42 {
			t.Fatalf("fallback neighbor = %v, want 42", id)
		}
	}
}

func TestSampleNeighborsWeighted(t *testing.T) {
	st := storage.NewDynamicStore(storage.Options{})
	st.AddEdge(graph.Edge{Src: 1, Dst: 10, Weight: 9})
	st.AddEdge(graph.Edge{Src: 1, Dst: 20, Weight: 1})
	s := New(st, Options{Seed: 5})
	nb := s.SampleNeighbors([]graph.VertexID{1}, 0, 20000)
	count10 := 0
	for _, id := range nb.Neighbors {
		if id == 10 {
			count10++
		}
	}
	frac := float64(count10) / 20000
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("heavy neighbor sampled %.3f of the time, want ~0.9", frac)
	}
}

func TestSampleSubgraphTwoHop(t *testing.T) {
	st := buildStore(t)
	for _, par := range []int{0, 4} {
		s := New(st, Options{Parallelism: par, Seed: 9})
		seeds := []graph.VertexID{0, 5, 10}
		sg := s.SampleSubgraph(seeds, graph.MetaPath{0, 1}, []int{4, 3})
		if len(sg.Layers) != 2 {
			t.Fatalf("layers = %d", len(sg.Layers))
		}
		if len(sg.Layers[0].Nodes) != 3*4 || len(sg.Layers[1].Nodes) != 3*4*3 {
			t.Fatalf("layer sizes = %d/%d", len(sg.Layers[0].Nodes), len(sg.Layers[1].Nodes))
		}
		if sg.NumNodes() != 3+12+36 {
			t.Fatalf("NumNodes = %d", sg.NumNodes())
		}
		// Hop-1 nodes expand their parent seeds.
		for i, n := range sg.Layers[0].Nodes {
			seed := seeds[i/4]
			lo := 1000 + uint64(seed)*20
			if uint64(n) < lo || uint64(n) >= lo+20 {
				t.Fatalf("par=%d hop1[%d]=%v not a neighbor of %v", par, i, n, seed)
			}
		}
		// Hop-2 nodes are relation-1 neighbors of their hop-1 parents.
		for i, n := range sg.Layers[1].Nodes {
			parent := sg.Layers[0].Nodes[i/3]
			lo := 10000 + uint64(parent)*5
			if uint64(n) < lo || uint64(n) >= lo+5 {
				t.Fatalf("hop2[%d]=%v not rel-1 neighbor of %v", i, n, parent)
			}
		}
	}
}

func TestSampleSubgraphPanicsOnLengthMismatch(t *testing.T) {
	s := New(buildStore(t), Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.SampleSubgraph([]graph.VertexID{1}, graph.MetaPath{0, 1}, []int{5})
}

func TestDeterministicWithSameSeed(t *testing.T) {
	st := buildStore(t)
	a := New(st, Options{Seed: 42}).SampleNeighbors([]graph.VertexID{1, 2, 3}, 0, 5)
	b := New(st, Options{Seed: 42}).SampleNeighbors([]graph.VertexID{1, 2, 3}, 0, 5)
	for i := range a.Neighbors {
		if a.Neighbors[i] != b.Neighbors[i] {
			t.Fatal("same seed produced different samples")
		}
	}
}

func TestParallelMatchesSerialCoverage(t *testing.T) {
	// Parallel sampling cannot be bitwise-equal to serial (different rng
	// streams), but every sample must still be a valid neighbor.
	st := buildStore(t)
	s := New(st, Options{Parallelism: 8, Seed: 11})
	seeds := make([]graph.VertexID, 100)
	for i := range seeds {
		seeds[i] = graph.VertexID(i)
	}
	nb := s.SampleNeighbors(seeds, 0, 10)
	for i, seed := range seeds {
		for j := 0; j < 10; j++ {
			got := nb.Neighbors[i*10+j]
			lo := 1000 + uint64(seed)*20
			if uint64(got) < lo || uint64(got) >= lo+20 {
				t.Fatalf("invalid parallel sample %v for seed %v", got, seed)
			}
		}
	}
}

func BenchmarkNeighborSamplingBatch1024(b *testing.B) {
	st := buildStore(b)
	s := New(st, Options{Parallelism: 4, Seed: 1})
	seeds := make([]graph.VertexID, 1024)
	for i := range seeds {
		seeds[i] = graph.VertexID(i % 100)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleNeighbors(seeds, 0, 50)
	}
}

// BenchmarkRandomWalk times weighted random-walk steps, each one
// single-draw SampleNeighbors call, over 720k weighted edges on 100k
// vertices. Every vertex has an out-edge; the rest go to Zipf-chosen hubs
// whose trees are taller than one leaf. Walks move to uniform destinations,
// so most steps land in a tree that is out of cache.
func BenchmarkRandomWalk(b *testing.B) {
	const vertices, edges, walkLen = 100_000, 720_000, 16
	st := storage.NewDynamicStore(storage.Options{Tree: core.Options{Compress: true}})
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, vertices-1)
	events := make([]graph.Event, 0, 8192)
	for i := 0; i < edges; i++ {
		src := uint64(i)
		if i >= vertices {
			src = zipf.Uint64()
		}
		events = append(events, graph.Event{Kind: graph.AddEdge, Edge: graph.Edge{
			Src: graph.VertexID(src), Dst: graph.VertexID(rng.Intn(vertices)),
			Weight: 1 + rng.Float64(),
		}})
		if len(events) == cap(events) || i == edges-1 {
			st.ApplyBatch(events)
			events = events[:0]
		}
	}
	seeds := make([]graph.VertexID, 1024)
	for i := range seeds {
		seeds[i] = graph.VertexID(rng.Intn(vertices))
	}
	s := New(st, Options{Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RandomWalk(seeds, 0, walkLen)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(seeds)*walkLen), "ns/step")
}

func TestSampleNeighborsUniformIgnoresWeights(t *testing.T) {
	st := storage.NewDynamicStore(storage.Options{})
	st.AddEdge(graph.Edge{Src: 1, Dst: 10, Weight: 1000})
	st.AddEdge(graph.Edge{Src: 1, Dst: 20, Weight: 1})
	s := New(st, Options{Seed: 2})
	nb := s.SampleNeighborsUniform([]graph.VertexID{1}, 0, 40000)
	count10 := 0
	for _, id := range nb.Neighbors {
		if id == 10 {
			count10++
		}
	}
	frac := float64(count10) / 40000
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("uniform sampling skewed: %.3f", frac)
	}
	// Fallback for unknown seed.
	nb = s.SampleNeighborsUniform([]graph.VertexID{99}, 0, 3)
	for _, id := range nb.Neighbors {
		if id != 99 {
			t.Fatalf("fallback = %v", id)
		}
	}
}

func TestRandomWalk(t *testing.T) {
	st := storage.NewDynamicStore(storage.Options{})
	// A path graph 0 -> 1 -> 2 -> 3; 3 is a sink.
	for i := uint64(0); i < 3; i++ {
		st.AddEdge(graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1), Weight: 1})
	}
	s := New(st, Options{Seed: 4})
	walks := s.RandomWalk([]graph.VertexID{0, 2}, 0, 5)
	if len(walks) != 2 {
		t.Fatalf("got %d walks", len(walks))
	}
	for _, w := range walks {
		if len(w) != 6 {
			t.Fatalf("walk length %d, want 6", len(w))
		}
	}
	// Walk from 0 deterministically follows the path then parks at 3.
	want := []graph.VertexID{0, 1, 2, 3, 3, 3}
	for i, v := range walks[0] {
		if v != want[i] {
			t.Fatalf("walk[0] = %v, want %v", walks[0], want)
		}
	}
	// Walk from an isolated vertex stays put.
	walks = s.RandomWalk([]graph.VertexID{42}, 0, 3)
	for _, v := range walks[0] {
		if v != 42 {
			t.Fatalf("isolated walk moved: %v", walks[0])
		}
	}
}

func TestRandomWalkWeighted(t *testing.T) {
	st := storage.NewDynamicStore(storage.Options{})
	st.AddEdge(graph.Edge{Src: 1, Dst: 2, Weight: 99})
	st.AddEdge(graph.Edge{Src: 1, Dst: 3, Weight: 1})
	s := New(st, Options{Seed: 6})
	seeds := make([]graph.VertexID, 5000)
	for i := range seeds {
		seeds[i] = 1
	}
	walks := s.RandomWalk(seeds, 0, 1)
	hit2 := 0
	for _, w := range walks {
		if w[1] == 2 {
			hit2++
		}
	}
	if frac := float64(hit2) / 5000; frac < 0.95 {
		t.Fatalf("heavy edge followed only %.3f of walks", frac)
	}
}

// TestSubgraphHopsIndependent: A -> {B1, B2} under relation 0, and each B
// -> {C1, C2} under relation 1, all of weight 1. Over many sampler seeds,
// a 1×1 subgraph of A must draw (B, C) from the product distribution: a
// second hop that reused the first hop's stream would draw the same
// quantile twice and put all the mass on (B1, C1) and (B2, C2).
func TestSubgraphHopsIndependent(t *testing.T) {
	st := storage.NewDynamicStore(storage.Options{})
	const a = 1
	bs, cs := []graph.VertexID{10, 11}, []graph.VertexID{20, 21}
	for _, b := range bs {
		st.AddEdge(graph.Edge{Src: a, Dst: b, Type: 0, Weight: 1})
		for _, c := range cs {
			st.AddEdge(graph.Edge{Src: b, Dst: c, Type: 1, Weight: 1})
		}
	}
	joint := make([]float64, 4)
	for seed := int64(0); seed < 4000; seed++ {
		sg := New(st, Options{Seed: seed}).SampleSubgraph([]graph.VertexID{a}, graph.MetaPath{0, 1}, []int{1, 1})
		joint[2*(sg.Layers[0].Nodes[0]-bs[0])+sg.Layers[1].Nodes[0]-cs[0]]++
	}
	if c := chiSquare(joint, []float64{1, 1, 1, 1}); c > 16.27 { // 3 dof, p = 0.001
		t.Fatalf("hops 1 and 2 are not independent: chi-square %.1f, counts (B,C) %v", c, joint)
	}
}

// TestRandomWalkStepsIndependent: vertices 1 and 2 each lead to {1, 2}.
// Over many sampler seeds, a walker's first two steps must follow the
// product distribution: a step that reused the previous step's stream
// would repeat its quantile and always step to where it stepped before.
func TestRandomWalkStepsIndependent(t *testing.T) {
	st := storage.NewDynamicStore(storage.Options{})
	for _, src := range []graph.VertexID{1, 2} {
		st.AddEdge(graph.Edge{Src: src, Dst: 1, Weight: 1})
		st.AddEdge(graph.Edge{Src: src, Dst: 2, Weight: 1})
	}
	joint := make([]float64, 4)
	for seed := int64(0); seed < 4000; seed++ {
		walk := New(st, Options{Seed: seed}).RandomWalk([]graph.VertexID{1}, 0, 2)[0]
		joint[2*(walk[1]-1)+walk[2]-1]++
	}
	if c := chiSquare(joint, []float64{1, 1, 1, 1}); c > 16.27 { // 3 dof, p = 0.001
		t.Fatalf("walk steps 1 and 2 are not independent: chi-square %.1f, counts %v", c, joint)
	}
}

// TestRandomWalkNonPositiveLength: a walk of length 0 or less is its seed
// alone.
func TestRandomWalkNonPositiveLength(t *testing.T) {
	s := New(buildStore(t), Options{Seed: 1})
	seeds := []graph.VertexID{3, 7, 3}
	for _, length := range []int{0, -1, -2} {
		walks := s.RandomWalk(seeds, 0, length)
		if len(walks) != len(seeds) {
			t.Fatalf("length %d: %d walks for %d seeds", length, len(walks), len(seeds))
		}
		for i, w := range walks {
			if len(w) != 1 || w[0] != seeds[i] {
				t.Fatalf("length %d: walk %d = %v, want [%v]", length, i, w, seeds[i])
			}
		}
	}
}

func TestSampleNodesByDegree(t *testing.T) {
	st := storage.NewDynamicStore(storage.Options{})
	// Source 1: degree 90; source 2: degree 10.
	for i := uint64(0); i < 90; i++ {
		st.AddEdge(graph.Edge{Src: 1, Dst: graph.VertexID(100 + i), Weight: 1})
	}
	for i := uint64(0); i < 10; i++ {
		st.AddEdge(graph.Edge{Src: 2, Dst: graph.VertexID(500 + i), Weight: 1})
	}
	s := New(st, Options{Seed: 1})
	rng := rand.New(rand.NewSource(7))
	counts := map[graph.VertexID]int{}
	for _, v := range s.SampleNodesByDegree(0, 20000, rng) {
		counts[v]++
	}
	frac := float64(counts[1]) / 20000
	if frac < 0.87 || frac > 0.93 {
		t.Fatalf("degree-weighted sampling: source 1 drawn %.3f, want ~0.9", frac)
	}
	if got := s.SampleNodesByDegree(9, 5, rng); got != nil {
		t.Fatalf("empty relation returned %v", got)
	}
}

// TestNewRandFirstDrawsIndependent: generators whose seeds differ by a
// constant, as worker w and w+1 of a stream do, or the cluster client's
// hops (7919 apart), must draw independent first values. Over 4000 seeds,
// the halves of [0, 1) that the pair's first draws fall in must follow the
// product distribution (chi-square, 3 degrees of freedom, p = 0.001).
func TestNewRandFirstDrawsIndependent(t *testing.T) {
	half := func(r *rand.Rand) int {
		if r.Float64() < 0.5 {
			return 0
		}
		return 1
	}
	for _, d := range []int64{1, 7919} {
		joint := make([]float64, 4)
		for s := int64(0); s < 4000; s++ {
			joint[2*half(NewRand(s))+half(NewRand(s+d))]++
		}
		if c := chiSquare(joint, []float64{1, 1, 1, 1}); c > 16.27 {
			t.Fatalf("seeds s and s+%d: first draws not independent, chi-square %.1f, counts %v", d, c, joint)
		}
	}
}
