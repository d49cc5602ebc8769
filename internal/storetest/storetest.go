// Package storetest provides a conformance suite run against every
// TopologyStore backend (PlatoD2GL, PlatoGL, AliGraph): identical dynamic
// semantics are a precondition for the paper's cross-system benchmarks to be
// meaningful.
package storetest

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"platod2gl/internal/graph"
	"platod2gl/internal/storage"
)

// Factory builds a fresh empty store.
type Factory func() storage.TopologyStore

// Run executes the full conformance suite against the backend.
func Run(t *testing.T, f Factory) {
	t.Helper()
	t.Run("EmptyStore", func(t *testing.T) { testEmpty(t, f()) })
	t.Run("AddQueryDelete", func(t *testing.T) { testAddQueryDelete(t, f()) })
	t.Run("EdgeTypeIsolation", func(t *testing.T) { testEdgeTypes(t, f()) })
	t.Run("SampleDistribution", func(t *testing.T) { testSampleDistribution(t, f()) })
	t.Run("UniformSampleDistribution", func(t *testing.T) { testUniformDistribution(t, f()) })
	t.Run("SampleNoneOrK", func(t *testing.T) { testSampleNoneOrK(t, f()) })
	t.Run("FrontierEqualsLoop", func(t *testing.T) { testFrontierEqualsLoop(t, f()) })
	t.Run("FrontierDuringApplyBatch", func(t *testing.T) { testFrontierDuringApplyBatch(t, f()) })
	t.Run("BatchEqualsSingles", func(t *testing.T) { testBatchEqualsSingles(t, f(), f()) })
	t.Run("BatchOrderOnEqualTimestamps", func(t *testing.T) { testBatchOrderOnTies(t, f()) })
	t.Run("RandomChurn", func(t *testing.T) { testRandomChurn(t, f()) })
	t.Run("MemoryAccounting", func(t *testing.T) { testMemory(t, f()) })
}

func testEmpty(t *testing.T, s storage.TopologyStore) {
	if s.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d", s.NumEdges())
	}
	if s.Degree(1, 0) != 0 {
		t.Fatal("Degree nonzero on empty store")
	}
	if _, ok := s.EdgeWeight(1, 2, 0); ok {
		t.Fatal("EdgeWeight found an edge in empty store")
	}
	if s.DeleteEdge(1, 2, 0) || s.UpdateWeight(1, 2, 0, 1) {
		t.Fatal("mutating absent edge returned true")
	}
	rng := rand.New(rand.NewSource(1))
	if out := sampleOne(s, 1, 0, 5, false, rng, nil); len(out) != 0 {
		t.Fatalf("sampled from empty store: %v", out)
	}
	if srcs := s.Sources(0); len(srcs) != 0 {
		t.Fatalf("Sources = %v", srcs)
	}
}

func testAddQueryDelete(t *testing.T, s storage.TopologyStore) {
	if !s.AddEdge(graph.Edge{Src: 1, Dst: 2, Weight: 0.5}) {
		t.Fatal("AddEdge new returned false")
	}
	if s.AddEdge(graph.Edge{Src: 1, Dst: 2, Weight: 0.9}) {
		t.Fatal("AddEdge existing returned true")
	}
	if w, ok := s.EdgeWeight(1, 2, 0); !ok || math.Abs(w-0.9) > 1e-12 {
		t.Fatalf("EdgeWeight = %v,%v want 0.9", w, ok)
	}
	if !s.UpdateWeight(1, 2, 0, 1.5) {
		t.Fatal("UpdateWeight failed")
	}
	if w, _ := s.EdgeWeight(1, 2, 0); math.Abs(w-1.5) > 1e-12 {
		t.Fatalf("weight after update = %v", w)
	}
	if s.Degree(1, 0) != 1 || s.NumEdges() != 1 {
		t.Fatalf("degree=%d edges=%d", s.Degree(1, 0), s.NumEdges())
	}
	if !s.DeleteEdge(1, 2, 0) || s.DeleteEdge(1, 2, 0) {
		t.Fatal("delete semantics broken")
	}
	if s.NumEdges() != 0 || s.Degree(1, 0) != 0 {
		t.Fatalf("after delete: edges=%d degree=%d", s.NumEdges(), s.Degree(1, 0))
	}
}

func testEdgeTypes(t *testing.T, s storage.TopologyStore) {
	s.AddEdge(graph.Edge{Src: 1, Dst: 2, Type: 0, Weight: 1})
	s.AddEdge(graph.Edge{Src: 1, Dst: 3, Type: 1, Weight: 1})
	if s.Degree(1, 0) != 1 || s.Degree(1, 1) != 1 {
		t.Fatal("relations not isolated")
	}
	ids, _ := s.Neighbors(1, 1)
	if len(ids) != 1 || ids[0] != 3 {
		t.Fatalf("Neighbors(1,1) = %v", ids)
	}
	if !s.DeleteEdge(1, 3, 1) {
		t.Fatal("delete in relation 1 failed")
	}
	if s.Degree(1, 0) != 1 {
		t.Fatal("delete leaked across relations")
	}
}

func testSampleDistribution(t *testing.T, s storage.TopologyStore) {
	weights := map[graph.VertexID]float64{10: 1, 20: 2, 30: 3, 40: 4}
	total := 0.0
	for dst, w := range weights {
		s.AddEdge(graph.Edge{Src: 5, Dst: dst, Weight: w})
		total += w
	}
	rng := rand.New(rand.NewSource(42))
	const trials = 100000
	counts := map[graph.VertexID]int{}
	out := sampleOne(s, 5, 0, trials, false, rng, nil)
	if len(out) != trials {
		t.Fatalf("sampled %d, want %d", len(out), trials)
	}
	for _, id := range out {
		counts[id]++
	}
	chi2 := 0.0
	for id, w := range weights {
		expected := float64(trials) * w / total
		d := float64(counts[id]) - expected
		chi2 += d * d / expected
	}
	if chi2 > 16.27 { // 3 dof, p=0.001
		t.Fatalf("chi-square = %v, counts = %v", chi2, counts)
	}
}

func testUniformDistribution(t *testing.T, s storage.TopologyStore) {
	// Uniform sampling must ignore weights entirely.
	for i, w := range []float64{100, 1, 50, 1} {
		s.AddEdge(graph.Edge{Src: 9, Dst: graph.VertexID(10 + i), Weight: w})
	}
	rng := rand.New(rand.NewSource(13))
	const trials = 80000
	counts := map[graph.VertexID]int{}
	out := sampleOne(s, 9, 0, trials, true, rng, nil)
	if len(out) != trials {
		t.Fatalf("sampled %d, want %d", len(out), trials)
	}
	for _, id := range out {
		counts[id]++
	}
	expected := float64(trials) / 4
	chi2 := 0.0
	for i := 0; i < 4; i++ {
		d := float64(counts[graph.VertexID(10+i)]) - expected
		chi2 += d * d / expected
	}
	if chi2 > 16.27 { // 3 dof, p=0.001
		t.Fatalf("chi-square = %v, counts = %v", chi2, counts)
	}
	if got := sampleOne(s, 12345, 0, 3, true, rng, nil); len(got) != 0 {
		t.Fatalf("uniform sample from unknown source: %v", got)
	}
}

// fanGraph gives sources 0..n-1 of relation 0 between 1 and 300 weighted
// out-edges each, so a store's sources span one-leaf and many-leaf trees,
// then empties every ninth source again. It returns the sources.
func fanGraph(s storage.TopologyStore, n int, rng *rand.Rand) []graph.VertexID {
	var events []graph.Event
	srcs := make([]graph.VertexID, n)
	for i := range srcs {
		srcs[i] = graph.VertexID(i)
		for d := 1 + rng.Intn(300); d > 0; d-- {
			events = append(events, graph.Event{Kind: graph.AddEdge, Edge: graph.Edge{
				Src: srcs[i], Dst: graph.VertexID(1000 + rng.Intn(4000)), Weight: rng.Float64() + 0.01,
			}})
		}
	}
	s.ApplyBatch(events)
	for i := 0; i < n; i += 9 {
		ids, _ := s.Neighbors(srcs[i], 0)
		for _, dst := range ids {
			s.DeleteEdge(srcs[i], dst, 0)
		}
	}
	return srcs
}

// sampleOne samples one source: SampleFrontier over src alone.
func sampleOne(s storage.TopologyStore, src graph.VertexID, et graph.EdgeType, k int, uniform bool, rng *rand.Rand, dst []graph.VertexID) []graph.VertexID {
	var got [1]int
	return s.SampleFrontier([]graph.VertexID{src}, et, []int{k}, uniform, rng, dst, got[:])
}

// oneSourceLoop is the loop SampleFrontier's contract names: one call per
// source, in order.
func oneSourceLoop(s storage.TopologyStore, srcs []graph.VertexID, et graph.EdgeType, counts []int, uniform bool, rng *rand.Rand, dst []graph.VertexID, got []int) []graph.VertexID {
	for i := range srcs {
		dst = s.SampleFrontier(srcs[i:i+1], et, counts[i:i+1], uniform, rng, dst, got[i:i+1])
	}
	return dst
}

// testSampleNoneOrK: sampling one source appends exactly 0 or k draws,
// never a part of k, whatever the source's degree and in both modes, and
// reports that count (frontier sampling scatters a vertex's draws in blocks
// on that premise).
func testSampleNoneOrK(t *testing.T, s storage.TopologyStore) {
	rng := rand.New(rand.NewSource(21))
	srcs := append(fanGraph(s, 60, rng), 5000, 5001) // two absent sources
	for _, src := range srcs {
		deg := s.Degree(src, 0)
		for _, k := range []int{0, 1, 2, 3, 10, 33, 100} {
			for _, uniform := range []bool{false, true} {
				prefix := []graph.VertexID{7, 7}
				got := []int{-1}
				out := s.SampleFrontier([]graph.VertexID{src}, 0, []int{k}, uniform, rng, prefix, got)
				if n := len(out) - len(prefix); (deg == 0 && n != 0) || (deg > 0 && n != k) || got[0] != n {
					t.Fatalf("source %d of degree %d, uniform %v: %d draws (reported %d) for k=%d, want %d", src, deg, uniform, n, got[0], k, min(deg, 1)*k)
				}
				if !slices.Equal(out[:len(prefix)], prefix) {
					t.Fatalf("source %d: SampleFrontier overwrote dst's prefix", src)
				}
			}
		}
	}
}

// testFrontierEqualsLoop: SampleFrontier is bit for bit the one-source loop
// its contract names, and leaves the generator where the loop leaves it, in
// both modes, over repeated, absent and emptied sources, counts from 0 up,
// an absent relation and a destination with a prefix.
func testFrontierEqualsLoop(t *testing.T, s storage.TopologyStore) {
	rng := rand.New(rand.NewSource(22))
	srcs := fanGraph(s, 120, rng)
	var frontier []graph.VertexID
	for i := 0; i < 400; i++ {
		switch r := rng.Intn(10); {
		case r == 0:
			frontier = append(frontier, graph.VertexID(9000+rng.Intn(50))) // absent
		case r < 4:
			frontier = append(frontier, srcs[rng.Intn(8)]) // a few hot sources recur
		default:
			frontier = append(frontier, srcs[rng.Intn(len(srcs))])
		}
	}
	counts := make([]int, len(frontier))
	for i := range counts {
		counts[i] = []int{0, 1, 1, 3, 10, 25, 50, 250}[rng.Intn(8)]
	}
	for _, uniform := range []bool{false, true} {
		for _, et := range []graph.EdgeType{0, 4} {
			for _, n := range []int{0, 1, 17, len(frontier)} {
				for seed := int64(0); seed < 3; seed++ {
					prefix := []graph.VertexID{1, 2, 3}
					rngF, rngL := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
					gotF, gotL := make([]int, n), make([]int, n)
					for i := range gotF {
						gotF[i] = -1 // every element must be written
					}
					outF := s.SampleFrontier(frontier[:n], et, counts[:n], uniform, rngF, slices.Clone(prefix), gotF)
					outL := oneSourceLoop(s, frontier[:n], et, counts[:n], uniform, rngL, slices.Clone(prefix), gotL)
					if !slices.Equal(outF, outL) || !slices.Equal(gotF, gotL) {
						t.Fatalf("uniform %v, relation %d, %d sources, seed %d: SampleFrontier differs from the one-source loop", uniform, et, n, seed)
					}
					if a, b := rngF.Int63(), rngL.Int63(); a != b {
						t.Fatalf("uniform %v, relation %d, %d sources, seed %d: the generator ends elsewhere than the loop's", uniform, et, n, seed)
					}
				}
			}
		}
	}
}

// testFrontierDuringApplyBatch samples frontiers from several goroutines
// while batches add and delete the sampled sources' edges (run it under
// -race). Every draw must be an edge some batch wrote, and every source
// must get all of its draws or none.
func testFrontierDuringApplyBatch(t *testing.T, s storage.TopologyStore) {
	const sources, rounds, readers = 64, 30, 2
	frontier := make([]graph.VertexID, 3*sources)
	counts := make([]int, len(frontier))
	for i := range frontier {
		frontier[i] = graph.VertexID(i % (sources + 8)) // 8 sources never get an edge
		counts[i] = 1 + i%12
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			got := make([]int, len(frontier))
			var dst []graph.VertexID
			for {
				select {
				case <-done:
					return
				default:
				}
				dst = s.SampleFrontier(frontier, 0, counts, r == 1, rng, dst[:0], got)
				at := 0
				for i, n := range got {
					if n != 0 && n != counts[i] {
						errs <- "a source got part of its draws"
						return
					}
					for _, id := range dst[at : at+n] {
						if id < 1000 || id >= 1200 {
							errs <- "a draw is not an edge any batch wrote"
							return
						}
					}
					at += n
				}
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < rounds; round++ {
		events := make([]graph.Event, 256)
		for i := range events {
			kind := graph.AddEdge
			if round > 0 && rng.Intn(3) == 0 {
				kind = graph.DeleteEdge
			}
			events[i] = graph.Event{Kind: kind, Timestamp: int64(i), Edge: graph.Edge{
				Src: graph.VertexID(rng.Intn(sources)), Dst: graph.VertexID(1000 + rng.Intn(200)), Weight: rng.Float64() + 0.01,
			}}
		}
		s.ApplyBatch(events)
	}
	close(done)
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
}

func testBatchEqualsSingles(t *testing.T, batched, serial storage.TopologyStore) {
	rng := rand.New(rand.NewSource(9))
	var events []graph.Event
	for i := 0; i < 20000; i++ {
		kind := graph.AddEdge
		switch {
		case i > 500 && rng.Intn(8) == 0:
			kind = graph.DeleteEdge
		case i > 500 && rng.Intn(8) == 1:
			kind = graph.UpdateWeight
		}
		events = append(events, graph.Event{
			Kind: kind,
			Edge: graph.Edge{
				Src:    graph.VertexID(rng.Intn(200)),
				Dst:    graph.VertexID(rng.Intn(1500)),
				Type:   graph.EdgeType(rng.Intn(2)),
				Weight: float64(rng.Intn(100)) + 1,
			},
			Timestamp: int64(i),
		})
	}
	cp := make([]graph.Event, len(events))
	copy(cp, events)
	batched.ApplyBatch(cp)
	for _, ev := range events {
		switch ev.Kind {
		case graph.AddEdge:
			serial.AddEdge(ev.Edge)
		case graph.DeleteEdge:
			serial.DeleteEdge(ev.Edge.Src, ev.Edge.Dst, ev.Edge.Type)
		case graph.UpdateWeight:
			serial.UpdateWeight(ev.Edge.Src, ev.Edge.Dst, ev.Edge.Type, ev.Edge.Weight)
		}
	}
	if batched.NumEdges() != serial.NumEdges() {
		t.Fatalf("edge counts diverge: batch=%d serial=%d", batched.NumEdges(), serial.NumEdges())
	}
	for et := graph.EdgeType(0); et < 2; et++ {
		srcs := serial.Sources(et)
		sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
		bsrcs := batched.Sources(et)
		if len(bsrcs) < len(srcs) {
			t.Fatalf("et %d: batched has %d sources, serial %d", et, len(bsrcs), len(srcs))
		}
		for _, src := range srcs {
			si, sw := serial.Neighbors(src, et)
			bi, bw := batched.Neighbors(src, et)
			if len(si) != len(bi) {
				t.Fatalf("src %v et %d: %d vs %d neighbors", src, et, len(bi), len(si))
			}
			bm := map[graph.VertexID]float64{}
			for i, id := range bi {
				bm[id] = bw[i]
			}
			for i, id := range si {
				got, ok := bm[id]
				if !ok || math.Abs(got-sw[i]) > 1e-9 {
					t.Fatalf("src %v dst %v: batch %v (present=%v) vs serial %v", src, id, got, ok, sw[i])
				}
			}
		}
	}
}

// testBatchOrderOnTies: events on one edge that share a timestamp apply in
// batch order. Every event here has timestamp 0: a batch of (add, delete)
// pairs leaves no edge, and one of (delete, add) pairs leaves every edge.
func testBatchOrderOnTies(t *testing.T, s storage.TopologyStore) {
	const edges = 2048
	batch := func(first, second graph.EventKind) []graph.Event {
		var events []graph.Event
		for i := 0; i < edges; i++ {
			e := graph.Edge{Src: graph.VertexID(i % 64), Dst: graph.VertexID(i), Weight: 1}
			events = append(events, graph.Event{Kind: first, Edge: e}, graph.Event{Kind: second, Edge: e})
		}
		return events
	}
	s.ApplyBatch(batch(graph.AddEdge, graph.DeleteEdge))
	if n := s.NumEdges(); n != 0 {
		t.Fatalf("(add, delete) pairs left %d edges, want 0", n)
	}
	s.ApplyBatch(batch(graph.DeleteEdge, graph.AddEdge))
	if n := s.NumEdges(); n != edges {
		t.Fatalf("(delete, add) pairs left %d edges, want %d", n, edges)
	}
}

func testRandomChurn(t *testing.T, s storage.TopologyStore) {
	rng := rand.New(rand.NewSource(101))
	type key struct {
		src, dst graph.VertexID
	}
	ref := map[key]float64{}
	keysOf := func() []key {
		out := make([]key, 0, len(ref))
		for k := range ref {
			out = append(out, k)
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].src != out[j].src {
				return out[i].src < out[j].src
			}
			return out[i].dst < out[j].dst
		})
		return out
	}
	for step := 0; step < 6000; step++ {
		switch op := rng.Intn(10); {
		case op < 6 || len(ref) == 0:
			k := key{graph.VertexID(rng.Intn(50)), graph.VertexID(rng.Intn(400))}
			w := float64(rng.Intn(50)) + 1
			_, existed := ref[k]
			if got := s.AddEdge(graph.Edge{Src: k.src, Dst: k.dst, Weight: w}); got == existed {
				t.Fatalf("step %d: AddEdge new=%v want %v", step, got, !existed)
			}
			ref[k] = w
		case op < 8:
			ks := keysOf()
			k := ks[rng.Intn(len(ks))]
			if !s.DeleteEdge(k.src, k.dst, 0) {
				t.Fatalf("step %d: DeleteEdge(%v,%v) failed", step, k.src, k.dst)
			}
			delete(ref, k)
		default:
			ks := keysOf()
			k := ks[rng.Intn(len(ks))]
			w := float64(rng.Intn(50)) + 1
			if !s.UpdateWeight(k.src, k.dst, 0, w) {
				t.Fatalf("step %d: UpdateWeight failed", step)
			}
			ref[k] = w
		}
		if step%499 == 0 {
			if int(s.NumEdges()) != len(ref) {
				t.Fatalf("step %d: NumEdges=%d want %d", step, s.NumEdges(), len(ref))
			}
			for k, w := range ref {
				got, ok := s.EdgeWeight(k.src, k.dst, 0)
				if !ok || math.Abs(got-w) > 1e-9 {
					t.Fatalf("step %d: weight(%v,%v)=%v,%v want %v", step, k.src, k.dst, got, ok, w)
				}
			}
		}
	}
}

func testMemory(t *testing.T, s storage.TopologyStore) {
	before := s.MemoryBytes()
	for i := 0; i < 5000; i++ {
		s.AddEdge(graph.Edge{
			Src:    graph.VertexID(i % 100),
			Dst:    graph.MakeVertexID(1, uint64(i)),
			Weight: 1,
		})
	}
	after := s.MemoryBytes()
	if after <= before {
		t.Fatalf("MemoryBytes did not grow: %d -> %d", before, after)
	}
	// Sanity floor: at least 8 bytes per stored edge.
	if after-before < 5000*8 {
		t.Fatalf("MemoryBytes delta %d implausibly small", after-before)
	}
}
