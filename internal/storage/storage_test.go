package storage

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"platod2gl/internal/core"
	"platod2gl/internal/graph"
)

func newStore() *DynamicStore {
	return NewDynamicStore(Options{Tree: core.Options{Capacity: 16, Compress: true}})
}

func TestAddAndQuery(t *testing.T) {
	s := newStore()
	e := graph.Edge{Src: 1, Dst: 2, Type: 0, Weight: 0.5}
	if !s.AddEdge(e) {
		t.Fatal("AddEdge of new edge returned false")
	}
	if s.AddEdge(graph.Edge{Src: 1, Dst: 2, Type: 0, Weight: 0.7}) {
		t.Fatal("AddEdge of existing edge returned true")
	}
	if w, ok := s.EdgeWeight(1, 2, 0); !ok || math.Abs(w-0.7) > 1e-12 {
		t.Fatalf("EdgeWeight = %v,%v", w, ok)
	}
	if s.Degree(1, 0) != 1 || s.NumEdges() != 1 {
		t.Fatalf("degree=%d edges=%d", s.Degree(1, 0), s.NumEdges())
	}
	// Distinct edge types are independent relations.
	if s.Degree(1, 1) != 0 {
		t.Fatal("degree leaked across edge types")
	}
	s.AddEdge(graph.Edge{Src: 1, Dst: 2, Type: 1, Weight: 1})
	if s.Degree(1, 1) != 1 || s.Degree(1, 0) != 1 {
		t.Fatal("edge types not isolated")
	}
}

func TestDeleteAndUpdate(t *testing.T) {
	s := newStore()
	s.AddEdge(graph.Edge{Src: 1, Dst: 2, Weight: 1})
	if !s.UpdateWeight(1, 2, 0, 4) {
		t.Fatal("UpdateWeight failed")
	}
	if w, _ := s.EdgeWeight(1, 2, 0); math.Abs(w-4) > 1e-12 {
		t.Fatalf("weight = %v, want 4", w)
	}
	if s.UpdateWeight(1, 99, 0, 1) {
		t.Fatal("UpdateWeight of absent edge returned true")
	}
	if !s.DeleteEdge(1, 2, 0) {
		t.Fatal("DeleteEdge failed")
	}
	if s.DeleteEdge(1, 2, 0) {
		t.Fatal("double delete returned true")
	}
	if s.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d, want 0", s.NumEdges())
	}
	if s.DeleteEdge(5, 5, 3) {
		t.Fatal("delete on unknown relation returned true")
	}
}

func TestNeighborsAndSources(t *testing.T) {
	s := newStore()
	for i := uint64(0); i < 50; i++ {
		s.AddEdge(graph.Edge{Src: 7, Dst: graph.VertexID(i), Weight: float64(i) + 1})
	}
	ids, weights := s.Neighbors(7, 0)
	if len(ids) != 50 || len(weights) != 50 {
		t.Fatalf("Neighbors returned %d/%d", len(ids), len(weights))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i, id := range ids {
		if uint64(id) != uint64(i) {
			t.Fatalf("missing neighbor %d", i)
		}
	}
	srcs := s.Sources(0)
	if len(srcs) != 1 || srcs[0] != 7 {
		t.Fatalf("Sources = %v", srcs)
	}
	if ids, _ := s.Neighbors(99, 0); ids != nil {
		t.Fatal("Neighbors of unknown source should be nil")
	}
}

func TestSampleNeighborsDistribution(t *testing.T) {
	s := newStore()
	weights := map[graph.VertexID]float64{10: 1, 20: 2, 30: 3, 40: 4}
	total := 0.0
	for dst, w := range weights {
		s.AddEdge(graph.Edge{Src: 1, Dst: dst, Weight: w})
		total += w
	}
	rng := rand.New(rand.NewSource(10))
	counts := map[graph.VertexID]int{}
	const trials = 100000
	got := s.SampleNeighbors(1, 0, trials, rng, nil)
	if len(got) != trials {
		t.Fatalf("sampled %d, want %d", len(got), trials)
	}
	for _, id := range got {
		counts[id]++
	}
	chi2 := 0.0
	for id, w := range weights {
		expected := float64(trials) * w / total
		d := float64(counts[id]) - expected
		chi2 += d * d / expected
	}
	if chi2 > 16.27 {
		t.Fatalf("chi-square = %v, counts = %v", chi2, counts)
	}
	// Unknown source: no samples.
	if out := s.SampleNeighbors(12345, 0, 5, rng, nil); len(out) != 0 {
		t.Fatalf("sampled from unknown source: %v", out)
	}
}

func TestSampleNeighborsConsumesKFloat64s(t *testing.T) {
	s := newStore() // capacity 16: degree 5 is one leaf, degree 200 a taller tree
	for i := 0; i < 200; i++ {
		if i < 5 {
			s.AddEdge(graph.Edge{Src: 1, Dst: graph.VertexID(i), Weight: float64(i + 1)})
		}
		s.AddEdge(graph.Edge{Src: 2, Dst: graph.VertexID(i), Weight: float64(i%7 + 1)})
	}
	s.AddEdge(graph.Edge{Src: 3, Dst: 1, Weight: 1})
	s.DeleteEdge(3, 1, 0) // source 3 keeps an empty tree
	for _, src := range []graph.VertexID{1, 2, 3} {
		for _, k := range []int{1, 10, 33, 64} {
			rng := rand.New(rand.NewSource(int64(k)))
			twin := rand.New(rand.NewSource(int64(k)))
			got := s.SampleNeighbors(src, 0, k, rng, nil)
			want := k
			if src == 3 {
				want = 0
			}
			if len(got) != want {
				t.Fatalf("src %v k=%d: %d samples, want %d", src, k, len(got), want)
			}
			for i := 0; i < want; i++ {
				twin.Float64()
			}
			if a, b := rng.Int63(), twin.Int63(); a != b {
				t.Fatalf("src %v k=%d: SampleNeighbors did not consume exactly %d Float64 values", src, k, want)
			}
		}
	}
}

func TestApplyBatchMatchesSingles(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var events []graph.Event
	for i := 0; i < 30000; i++ {
		kind := graph.AddEdge
		if i > 1000 && rng.Intn(10) == 0 {
			kind = graph.DeleteEdge
		}
		events = append(events, graph.Event{
			Kind: kind,
			Edge: graph.Edge{
				Src:    graph.VertexID(rng.Intn(300)),
				Dst:    graph.VertexID(rng.Intn(2000)),
				Type:   graph.EdgeType(rng.Intn(2)),
				Weight: rng.Float64() + 0.01,
			},
			Timestamp: int64(i),
		})
	}
	batched := NewDynamicStore(Options{Tree: core.Options{Capacity: 16}, Workers: 8})
	serial := NewDynamicStore(Options{Tree: core.Options{Capacity: 16}, Workers: 1})
	evCopy := make([]graph.Event, len(events))
	copy(evCopy, events)
	batched.ApplyBatch(evCopy)
	for _, ev := range events {
		switch ev.Kind {
		case graph.AddEdge:
			serial.AddEdge(ev.Edge)
		case graph.DeleteEdge:
			serial.DeleteEdge(ev.Edge.Src, ev.Edge.Dst, ev.Edge.Type)
		}
	}
	if batched.NumEdges() != serial.NumEdges() {
		t.Fatalf("edge counts diverge: %d vs %d", batched.NumEdges(), serial.NumEdges())
	}
	for et := graph.EdgeType(0); et < 2; et++ {
		srcs := serial.Sources(et)
		for _, src := range srcs {
			bi, bw := batched.Neighbors(src, et)
			si, sw := serial.Neighbors(src, et)
			if len(bi) != len(si) {
				t.Fatalf("src %v et %d: %d vs %d neighbors", src, et, len(bi), len(si))
			}
			bm := map[graph.VertexID]float64{}
			for i, id := range bi {
				bm[id] = bw[i]
			}
			for i, id := range si {
				if math.Abs(bm[id]-sw[i]) > 1e-9 {
					t.Fatalf("src %v dst %v: weight %v vs %v", src, id, bm[id], sw[i])
				}
			}
		}
	}
}

func TestApplyBatchOrderWithinEdge(t *testing.T) {
	// Same edge added then deleted within a batch: final state must reflect
	// timestamp order.
	s := newStore()
	s.ApplyBatch([]graph.Event{
		{Kind: graph.DeleteEdge, Edge: graph.Edge{Src: 1, Dst: 2}, Timestamp: 2},
		{Kind: graph.AddEdge, Edge: graph.Edge{Src: 1, Dst: 2, Weight: 1}, Timestamp: 1},
	})
	if s.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d, want 0 (add then delete)", s.NumEdges())
	}
}

func TestConcurrentSingleOps(t *testing.T) {
	s := newStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 3000; i++ {
				src := graph.VertexID(rng.Intn(100))
				dst := graph.VertexID(rng.Intn(1000))
				s.AddEdge(graph.Edge{Src: src, Dst: dst, Weight: 1})
				s.SampleNeighbors(src, 0, 3, rng, nil)
				if rng.Intn(5) == 0 {
					s.DeleteEdge(src, dst, 0)
				}
			}
		}(g)
	}
	wg.Wait()
	// Cross-check edge count against a full recount.
	var n int64
	for _, src := range s.Sources(0) {
		n += int64(s.Degree(src, 0))
	}
	if n != s.NumEdges() {
		t.Fatalf("NumEdges = %d but recount = %d", s.NumEdges(), n)
	}
}

func TestMemoryBytesAndName(t *testing.T) {
	cp := NewDynamicStore(Options{Tree: core.Options{Compress: true}})
	nocp := NewDynamicStore(Options{Tree: core.Options{Compress: false}})
	if cp.Name() != "PlatoD2GL" || nocp.Name() != "PlatoD2GL(w/o CP)" {
		t.Fatalf("names: %q / %q", cp.Name(), nocp.Name())
	}
	for i := uint64(0); i < 20000; i++ {
		e := graph.Edge{Src: graph.VertexID(i % 100), Dst: graph.MakeVertexID(1, i), Weight: 1}
		cp.AddEdge(e)
		nocp.AddEdge(e)
	}
	if cp.MemoryBytes() >= nocp.MemoryBytes() {
		t.Fatalf("compression did not shrink memory: %d vs %d",
			cp.MemoryBytes(), nocp.MemoryBytes())
	}
}

func TestStats(t *testing.T) {
	s := NewDynamicStore(Options{Tree: core.Options{Capacity: 4}})
	for i := uint64(0); i < 100; i++ {
		s.AddEdge(graph.Edge{Src: 1, Dst: graph.VertexID(i), Weight: 1})
	}
	s.AddEdge(graph.Edge{Src: 2, Dst: 1, Weight: 1})
	st := s.Stats(0)
	if st.Trees != 2 {
		t.Fatalf("Trees = %d, want 2", st.Trees)
	}
	if st.MaxHeight < 3 {
		t.Fatalf("MaxHeight = %d, want >= 3", st.MaxHeight)
	}
	if empty := s.Stats(9); empty.Trees != 0 {
		t.Fatalf("Stats of unknown relation: %+v", empty)
	}
}

func TestRelationStats(t *testing.T) {
	s := NewDynamicStore(Options{Tree: core.Options{Capacity: 4}})
	for i := uint64(0); i < 100; i++ {
		s.AddEdge(graph.Edge{Src: 1, Dst: graph.VertexID(i), Weight: 1})
	}
	s.AddEdge(graph.Edge{Src: 2, Dst: 1, Weight: 1})
	s.AddEdge(graph.Edge{Src: 3, Dst: 1, Type: 2, Weight: 1})

	st := s.RelationStats(0)
	if st.Sources != 2 || st.Edges != 101 || st.MaxDegree != 100 {
		t.Fatalf("RelationStats(0) = %+v", st)
	}
	if st.MeanDegree != 50.5 || st.MaxHeight < 3 {
		t.Fatalf("RelationStats(0) = %+v", st)
	}
	all := s.AllStats()
	if len(all) != 2 || all[0].Type != 0 || all[1].Type != 2 {
		t.Fatalf("AllStats = %+v", all)
	}
	if empty := s.RelationStats(9); empty.Sources != 0 {
		t.Fatalf("unknown relation stats = %+v", empty)
	}
}

// TestConcurrentRelationTable creates relations and finally resets the store
// while readers sample, list, measure and snapshot it; run under -race.
func TestConcurrentRelationTable(t *testing.T) {
	s := newStore()
	const types = 24
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		rng := rand.New(rand.NewSource(1))
		for et := 0; et < types; et++ {
			batch := make([]graph.Event, 64)
			for i := range batch {
				batch[i] = graph.Event{Kind: graph.AddEdge, Edge: graph.Edge{
					Src: graph.VertexID(rng.Intn(8)), Dst: graph.VertexID(rng.Intn(100)),
					Type: graph.EdgeType(et * 10), Weight: rng.Float64() + 0.1,
				}}
			}
			s.ApplyBatch(batch)
		}
		if got := len(s.AllStats()); got != types {
			t.Errorf("%d relations after the writer finished, want %d", got, types)
		}
		s.Reset()
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(10 + g)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				et := graph.EdgeType(rng.Intn(types) * 10)
				for _, v := range s.SampleNeighbors(graph.VertexID(rng.Intn(8)), et, 5, rng, nil) {
					if v >= 100 {
						t.Errorf("sampled unknown neighbor %v", v)
					}
				}
				switch i % 3 {
				case 0:
					s.Sources(et)
				case 1:
					s.MemoryBytes()
				case 2:
					if err := s.Save(io.Discard); err != nil {
						t.Errorf("Save: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if s.NumEdges() != 0 || len(s.AllStats()) != 0 || s.Sources(0) != nil {
		t.Fatalf("store not empty after Reset: %d edges, %d relations", s.NumEdges(), len(s.AllStats()))
	}
}

// BenchmarkSampleNeighbors times SampleNeighbors with fan-out 10 from one
// source of each degree and reports the cost per draw.
func BenchmarkSampleNeighbors(b *testing.B) {
	for _, degree := range []int{8, 44, 256, 4096} {
		b.Run(fmt.Sprintf("degree=%d", degree), func(b *testing.B) {
			const k = 10
			s := NewDynamicStore(Options{Tree: core.Options{Compress: true}})
			rng := rand.New(rand.NewSource(1))
			for s.Degree(1, 0) < degree {
				s.AddEdge(graph.Edge{Src: 1, Dst: graph.MakeVertexID(1, uint64(rng.Intn(1<<20))), Weight: rng.Float64() + 0.1})
			}
			dst := make([]graph.VertexID, 0, k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = s.SampleNeighbors(1, 0, k, rng, dst[:0])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/draw")
		})
	}
}

// TestSampleNeighborsAllocs pins SampleNeighbors at zero allocations per
// call into a reused destination, at each of BenchmarkSampleNeighbors'
// degrees (the flat leaf, a few leaves, and a deep tree).
func TestSampleNeighborsAllocs(t *testing.T) {
	for _, degree := range []int{8, 44, 256, 4096} {
		const k = 10
		s := NewDynamicStore(Options{Tree: core.Options{Compress: true}})
		rng := rand.New(rand.NewSource(1))
		for s.Degree(1, 0) < degree {
			s.AddEdge(graph.Edge{Src: 1, Dst: graph.MakeVertexID(1, uint64(rng.Intn(1<<20))), Weight: rng.Float64() + 0.1})
		}
		dst := make([]graph.VertexID, 0, k)
		allocs := testing.AllocsPerRun(200, func() {
			dst = s.SampleNeighbors(1, 0, k, rng, dst[:0])
		})
		if allocs > 0 || len(dst) != k {
			t.Fatalf("degree %d: SampleNeighbors drew %d and allocates %.0f times per call, want %d and 0", degree, len(dst), allocs, k)
		}
	}
}

// TestSampleFrontierAllocs pins SampleFrontier at zero allocations per call
// into a presized destination, over a frontier of sources of every degree
// BenchmarkSampleNeighbors uses, one absent, each drawn fan-out 10 times,
// weighted and uniform.
func TestSampleFrontierAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const k = 10
	s := NewDynamicStore(Options{Tree: core.Options{Compress: true}})
	rng := rand.New(rand.NewSource(1))
	srcs := []graph.VertexID{1, 2, 3, 4, 5}
	for i, degree := range []int{8, 44, 256, 4096} {
		for s.Degree(srcs[i], 0) < degree {
			s.AddEdge(graph.Edge{Src: srcs[i], Dst: graph.MakeVertexID(1, uint64(rng.Intn(1<<20))), Weight: rng.Float64() + 0.1})
		}
	}
	counts := []int{k, k, k, k, k}
	got := make([]int, len(srcs))
	dst := make([]graph.VertexID, 0, len(srcs)*k)
	for _, uniform := range []bool{false, true} {
		allocs := testing.AllocsPerRun(200, func() {
			dst = s.SampleFrontier(srcs, 0, counts, uniform, rng, dst[:0], got)
		})
		if allocs > 0 || len(dst) != 4*k {
			t.Fatalf("uniform %v: SampleFrontier drew %d and allocates %.0f times per call, want %d and 0", uniform, len(dst), allocs, 4*k)
		}
	}
}

// TestCheckInvariants: a store churned through the batch path passes the
// whole-store invariant check, and a drifted edge count is caught.
func TestCheckInvariants(t *testing.T) {
	s := newStore()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("empty store: %v", err)
	}
	rng := rand.New(rand.NewSource(5))
	for b := 0; b < 20; b++ {
		events := make([]graph.Event, 500)
		for i := range events {
			kind := graph.AddEdge
			if b > 2 && rng.Intn(4) == 0 {
				kind = graph.DeleteEdge
			}
			events[i] = graph.Event{Kind: kind, Edge: graph.Edge{
				Src: graph.VertexID(rng.Intn(50)), Dst: graph.VertexID(rng.Intn(400)),
				Type: graph.EdgeType(rng.Intn(2)), Weight: rng.Float64() + 0.01,
			}}
		}
		s.ApplyBatch(events)
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	s.numEdges.Add(1)
	if err := s.CheckInvariants(); err == nil {
		t.Fatal("edge count off by one passed CheckInvariants")
	}
}

// TestConcurrentApplyBatch: batches applied from several goroutines at once
// (each ApplyBatch takes its own pooled scratch) leave the store that the same
// batches leave applied one after another.
func TestConcurrentApplyBatch(t *testing.T) {
	const writers, rounds = 4, 20
	batches := make([][][]graph.Event, writers)
	for w := range batches {
		rng := rand.New(rand.NewSource(int64(w)))
		for r := 0; r < rounds; r++ {
			events := make([]graph.Event, 300)
			for i := range events {
				kind := graph.AddEdge
				if r > 0 && rng.Intn(4) == 0 {
					kind = graph.DeleteEdge
				}
				// Writer w owns the sources congruent to w, so the final
				// state does not depend on how the writers interleave.
				events[i] = graph.Event{Kind: kind, Timestamp: int64(i), Edge: graph.Edge{
					Src: graph.VertexID(writers*rng.Intn(40) + w), Dst: graph.VertexID(rng.Intn(300)),
					Weight: rng.Float64() + 0.01,
				}}
			}
			batches[w] = append(batches[w], events)
		}
	}
	concurrent, serial := newStore(), newStore()
	var wg sync.WaitGroup
	for w := range batches {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, events := range batches[w] {
				concurrent.ApplyBatch(append([]graph.Event(nil), events...))
			}
		}(w)
	}
	wg.Wait()
	for _, rounds := range batches {
		for _, events := range rounds {
			serial.ApplyBatch(events)
		}
	}
	if err := concurrent.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if concurrent.NumEdges() != serial.NumEdges() {
		t.Fatalf("concurrent batches left %d edges, serial %d", concurrent.NumEdges(), serial.NumEdges())
	}
	for src := graph.VertexID(0); src < writers*40; src++ {
		ids, _ := serial.Neighbors(src, 0)
		for _, dst := range ids {
			w1, _ := serial.EdgeWeight(src, dst, 0)
			if w2, ok := concurrent.EdgeWeight(src, dst, 0); !ok || w1 != w2 {
				t.Fatalf("edge %d->%d: concurrent %v (present %v), serial %v", src, dst, w2, ok, w1)
			}
		}
	}
}
