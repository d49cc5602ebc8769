package storage

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"platod2gl/internal/core"
	"platod2gl/internal/graph"
	"platod2gl/internal/palm"
)

// workerSources returns per sources for each of workers workers, such that
// palm.Run hands every source of one list to the same worker.
func workerSources(t *testing.T, workers, per int) [][]graph.VertexID {
	t.Helper()
	probe := make([]graph.Event, 16*workers*per+64)
	for i := range probe {
		probe[i] = graph.Event{Edge: graph.Edge{Src: graph.VertexID(i), Weight: 1}}
	}
	var mu sync.Mutex
	var lists [][]graph.VertexID
	palm.Run(probe, workers, func(groups []palm.Group) {
		var srcs []graph.VertexID
		for _, g := range groups {
			srcs = append(srcs, g.Src)
		}
		mu.Lock()
		lists = append(lists, srcs)
		mu.Unlock()
	})
	if len(lists) != workers {
		t.Fatalf("palm.Run used %d workers, want %d", len(lists), workers)
	}
	for w, srcs := range lists {
		if len(srcs) < per {
			t.Fatalf("worker %d got %d probe sources, want at least %d", w, len(srcs), per)
		}
		lists[w] = srcs[:per]
	}
	return lists
}

// TestApplyBatchPrefetchWindows applies batches whose per-worker group
// counts sit at and around the apply loop's prefetch distances, at 1, 2 and
// 4 workers, and checks the store against one that applied the same events
// one at a time. Each batch deletes absent edges, and one tree per worker
// splits while later groups of its window are already prefetched.
func TestApplyBatchPrefetchWindows(t *testing.T) {
	opt := core.Options{Capacity: 4, Compress: true}
	for _, workers := range []int{1, 2, 4} {
		for _, per := range []int{1, lookahead / 4, lookahead / 2, lookahead - 1, lookahead, 2 * lookahead, 2*lookahead + 1} {
			rng := rand.New(rand.NewSource(int64(100*workers + per)))
			lists := workerSources(t, workers, per)
			batched := NewDynamicStore(Options{Tree: opt, Workers: workers})
			serial := NewDynamicStore(Options{Tree: opt, Workers: 1})
			var srcs []graph.VertexID
			for _, l := range lists {
				srcs = append(srcs, l...)
			}
			for round := 0; round < 3; round++ {
				var events []graph.Event
				for _, l := range lists {
					for k, src := range l {
						n := 1 + rng.Intn(5)
						if k == 0 {
							n = 3 * opt.Capacity // splits the tree
						}
						for e := 0; e < n; e++ {
							ev := graph.Event{Kind: graph.AddEdge, Edge: graph.Edge{
								Src: src, Dst: graph.VertexID(rng.Intn(40)), Weight: rng.Float64() + 0.01,
							}}
							switch r := rng.Intn(6); {
							case k == 0 && round == 0:
							case r == 0:
								ev.Kind = graph.DeleteEdge
							case r == 1:
								ev.Kind = graph.DeleteEdge
								ev.Edge.Dst += 1000 // never added
							case r == 2:
								ev.Kind = graph.UpdateWeight
							}
							events = append(events, ev)
						}
					}
				}
				rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
				for i := range events {
					events[i].Timestamp = int64(i)
					e := events[i].Edge
					switch events[i].Kind {
					case graph.AddEdge:
						serial.AddEdge(e)
					case graph.DeleteEdge:
						serial.DeleteEdge(e.Src, e.Dst, e.Type)
					case graph.UpdateWeight:
						serial.UpdateWeight(e.Src, e.Dst, e.Type, e.Weight)
					}
				}
				batched.ApplyBatch(events)
				if err := batched.CheckInvariants(); err != nil {
					t.Fatalf("workers %d, %d groups per worker, round %d: %v", workers, per, round, err)
				}
				sameStores(t, batched, serial, srcs)
			}
			if h := batched.Stats(0).MaxHeight; h < 2 {
				t.Fatalf("workers %d, %d groups per worker: no tree split (max height %d)", workers, per, h)
			}
		}
	}
}

// sameStores fails unless got and want hold the same edges count and the
// same neighbors, with the same weights, for each of srcs under type 0.
func sameStores(t *testing.T, got, want *DynamicStore, srcs []graph.VertexID) {
	t.Helper()
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("%d edges, want %d", got.NumEdges(), want.NumEdges())
	}
	for _, src := range srcs {
		ids, ws := want.Neighbors(src, 0)
		if d := got.Degree(src, 0); d != len(ids) {
			t.Fatalf("source %d: degree %d, want %d", src, d, len(ids))
		}
		for i, dst := range ids {
			if w, ok := got.EdgeWeight(src, dst, 0); !ok || math.Abs(w-ws[i]) > 1e-9 {
				t.Fatalf("edge %d->%d: weight %v (present %v), want %v", src, dst, w, ok, ws[i])
			}
		}
	}
}

// TestSampleFrontierPrefetchWindows samples frontiers whose lengths sit at
// and around SampleFrontier's prefetch distances and checks each, in both
// modes, against the per-source loop of SampleNeighbors or
// SampleNeighborsUniform, bit for bit. The frontiers mix one-leaf and split
// trees, repeated sources, absent sources and emptied ones, and are also
// sampled under a relation the store does not hold.
func TestSampleFrontierPrefetchWindows(t *testing.T) {
	s := NewDynamicStore(Options{Tree: core.Options{Capacity: 4, Compress: true}})
	rng := rand.New(rand.NewSource(31))
	for src := graph.VertexID(0); src < 48; src++ {
		for d := 1 + rng.Intn(3)*rng.Intn(12); d > 0; d-- {
			s.AddEdge(graph.Edge{Src: src, Dst: graph.VertexID(100 + rng.Intn(60)), Weight: rng.Float64() + 0.01})
		}
	}
	for src := graph.VertexID(0); src < 48; src += 5 {
		ids, _ := s.Neighbors(src, 0)
		for _, dst := range ids {
			s.DeleteEdge(src, dst, 0)
		}
	}
	if h := s.Stats(0).MaxHeight; h < 2 {
		t.Fatalf("no tree split (max height %d)", h)
	}
	const d = lookahead
	for _, n := range []int{0, 1, d / 4, d / 2, d - 1, d, 2 * d, 2*d + 1} {
		srcs := make([]graph.VertexID, n)
		counts := make([]int, n)
		for i := range srcs {
			srcs[i] = graph.VertexID(rng.Intn(56)) // 48.. are absent
			counts[i] = rng.Intn(2 * core.SampleBatch)
		}
		for _, et := range []graph.EdgeType{0, 2} {
			for _, uniform := range []bool{false, true} {
				rngF, rngL := rand.New(rand.NewSource(int64(n))), rand.New(rand.NewSource(int64(n)))
				gotF, gotL := make([]int, n), make([]int, n)
				outF := s.SampleFrontier(srcs, et, counts, uniform, rngF, nil, gotF)
				var outL []graph.VertexID
				for i, src := range srcs {
					before := len(outL)
					if uniform {
						outL = s.SampleNeighborsUniform(src, et, counts[i], rngL, outL)
					} else {
						outL = s.SampleNeighbors(src, et, counts[i], rngL, outL)
					}
					gotL[i] = len(outL) - before
				}
				if !slices.Equal(outF, outL) || !slices.Equal(gotF, gotL) || rngF.Int63() != rngL.Int63() {
					t.Fatalf("%d sources, relation %d, uniform %v: SampleFrontier differs from the per-source loop", n, et, uniform)
				}
			}
		}
	}
}
