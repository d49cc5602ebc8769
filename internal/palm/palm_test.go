package palm

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"platod2gl/internal/graph"
)

func ev(et graph.EdgeType, src, dst uint64, ts int64) graph.Event {
	return graph.Event{
		Kind:      graph.AddEdge,
		Edge:      graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst), Type: et, Weight: 1},
		Timestamp: ts,
	}
}

func TestPlanGroupsBySource(t *testing.T) {
	events := []graph.Event{
		ev(0, 5, 1, 0), ev(0, 3, 2, 1), ev(0, 5, 9, 2), ev(1, 5, 1, 3), ev(0, 3, 1, 4),
	}
	groups := Plan(events)
	if len(groups) != 3 {
		t.Fatalf("got %d groups, want 3", len(groups))
	}
	// Sorted by (type, src): (0,3) then (0,5) then (1,5).
	if groups[0].Src != 3 || groups[0].Type != 0 || len(groups[0].Events) != 2 {
		t.Fatalf("group 0 = %+v", groups[0])
	}
	if groups[1].Src != 5 || groups[1].Type != 0 || len(groups[1].Events) != 2 {
		t.Fatalf("group 1 = %+v", groups[1])
	}
	if groups[2].Src != 5 || groups[2].Type != 1 || len(groups[2].Events) != 1 {
		t.Fatalf("group 2 = %+v", groups[2])
	}
}

func TestPlanPreservesPerEdgeOrder(t *testing.T) {
	// Two updates to the same edge must keep timestamp order.
	events := []graph.Event{
		{Kind: graph.AddEdge, Edge: graph.Edge{Src: 1, Dst: 2, Weight: 5}, Timestamp: 2},
		{Kind: graph.AddEdge, Edge: graph.Edge{Src: 1, Dst: 2, Weight: 3}, Timestamp: 1},
	}
	groups := Plan(events)
	if len(groups) != 1 {
		t.Fatalf("got %d groups", len(groups))
	}
	g := groups[0].Events
	if g[0].Timestamp != 1 || g[1].Timestamp != 2 {
		t.Fatalf("order not preserved: %v, %v", g[0].Timestamp, g[1].Timestamp)
	}
}

// TestPlanKeepsBatchOrderOnTies: events on one edge with equal timestamps
// come out of Plan in batch order, here an add before the delete of each of
// 2048 edges, and Start locates each group in the batch.
func TestPlanKeepsBatchOrderOnTies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var events []graph.Event
	for i := 0; i < 2048; i++ {
		add := ev(graph.EdgeType(rng.Intn(2)), uint64(rng.Intn(64)), uint64(i), 0)
		del := add
		del.Kind = graph.DeleteEdge
		events = append(events, add, del)
	}
	groups := Plan(events)
	for _, g := range groups {
		if &events[g.Start] != &g.Events[0] {
			t.Fatalf("group of source %d: Start %d does not locate its events", g.Src, g.Start)
		}
		for i := 0; i < len(g.Events); i += 2 {
			if g.Events[i].Kind != graph.AddEdge || g.Events[i+1].Kind != graph.DeleteEdge {
				t.Fatalf("source %d dst %d: the delete came before the add", g.Src, g.Events[i].Edge.Dst)
			}
		}
	}
}

func TestPlanEmpty(t *testing.T) {
	if got := Plan(nil); len(got) != 0 {
		t.Fatalf("Plan(nil) = %v", got)
	}
}

func TestRunAppliesEveryEventExactlyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var events []graph.Event
	for i := 0; i < 10000; i++ {
		events = append(events, ev(graph.EdgeType(rng.Intn(3)),
			uint64(rng.Intn(500)), uint64(rng.Intn(1000)), int64(i)))
	}
	var applied atomic.Int64
	Run(events, 8, func(g Group) {
		applied.Add(int64(len(g.Events)))
	})
	if applied.Load() != 10000 {
		t.Fatalf("applied %d events, want 10000", applied.Load())
	}
}

func TestRunOneTreeOneWorker(t *testing.T) {
	// Concurrent apply calls must never see the same (type, src) pair.
	rng := rand.New(rand.NewSource(9))
	var events []graph.Event
	for i := 0; i < 20000; i++ {
		events = append(events, ev(0, uint64(rng.Intn(50)), uint64(i), int64(i)))
	}
	var mu sync.Mutex
	seen := map[uint64]int{} // src -> number of groups (should be 1 each)
	inFlight := map[uint64]bool{}
	Run(events, 8, func(g Group) {
		mu.Lock()
		if inFlight[uint64(g.Src)] {
			mu.Unlock()
			t.Error("two workers touched the same source concurrently")
			return
		}
		inFlight[uint64(g.Src)] = true
		seen[uint64(g.Src)]++
		mu.Unlock()

		mu.Lock()
		inFlight[uint64(g.Src)] = false
		mu.Unlock()
	})
	for src, n := range seen {
		if n != 1 {
			t.Fatalf("source %d split into %d groups", src, n)
		}
	}
}

func TestRunSingleWorkerSequential(t *testing.T) {
	events := []graph.Event{ev(0, 1, 1, 0), ev(0, 2, 1, 1)}
	order := []graph.VertexID{}
	Run(events, 1, func(g Group) { order = append(order, g.Src) })
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestDefaultWorkers(t *testing.T) {
	if w := DefaultWorkers(10); w < 1 {
		t.Fatalf("DefaultWorkers = %d", w)
	}
	if w := DefaultWorkers(1 << 20); w < 1 {
		t.Fatalf("DefaultWorkers(big) = %d", w)
	}
}
