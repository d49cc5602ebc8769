package palm

import (
	"cmp"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"platod2gl/internal/dataset"
	"platod2gl/internal/graph"
)

func ev(et graph.EdgeType, src, dst uint64, ts int64) graph.Event {
	return graph.Event{
		Kind:      graph.AddEdge,
		Edge:      graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst), Type: et, Weight: 1},
		Timestamp: ts,
	}
}

// sortCut is the planner before hash grouping, kept as the oracle: a
// comparison sort of the whole batch by (Type, Src, Dst, Timestamp,
// position), cut into runs of one (Type, Src).
func sortCut(events []graph.Event) []Group {
	order := make([]int, len(events))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int {
		x, y := &events[i], &events[j]
		return cmp.Or(
			cmp.Compare(x.Edge.Type, y.Edge.Type),
			cmp.Compare(x.Edge.Src, y.Edge.Src),
			cmp.Compare(x.Edge.Dst, y.Edge.Dst),
			cmp.Compare(x.Timestamp, y.Timestamp),
			cmp.Compare(i, j))
	})
	sorted := make([]graph.Event, len(events))
	for k, i := range order {
		sorted[k] = events[i]
	}
	copy(events, sorted)
	var groups []Group
	for i := 0; i < len(events); {
		j := i + 1
		for j < len(events) && events[j].Edge.Type == events[i].Edge.Type && events[j].Edge.Src == events[i].Edge.Src {
			j++
		}
		groups = append(groups, Group{Type: events[i].Edge.Type, Src: events[i].Edge.Src, Start: i, Events: events[i:j]})
		i = j
	}
	return groups
}

type treeKey struct {
	et  graph.EdgeType
	src graph.VertexID
}

// checkPlan asserts Plan's contract on groups planned from events: the
// groups tile the batch in order, each holds the events of one (Type, Src)
// and no other group holds that pair, and inside a group the events are in
// (Dst, Timestamp) order.
func checkPlan(t testing.TB, events []graph.Event, groups []Group) {
	t.Helper()
	seen := map[treeKey]bool{}
	at := 0
	for _, g := range groups {
		if g.Start != at || len(g.Events) == 0 || &events[g.Start] != &g.Events[0] {
			t.Fatalf("group (%d,%d): Start %d with %d events does not continue the tiling at %d",
				g.Type, g.Src, g.Start, len(g.Events), at)
		}
		at += len(g.Events)
		k := treeKey{g.Type, g.Src}
		if seen[k] {
			t.Fatalf("two groups for (%d,%d)", g.Type, g.Src)
		}
		seen[k] = true
		for i, e := range g.Events {
			if e.Edge.Type != g.Type || e.Edge.Src != g.Src {
				t.Fatalf("group (%d,%d) holds an event of (%d,%d)", g.Type, g.Src, e.Edge.Type, e.Edge.Src)
			}
			if i > 0 {
				p := g.Events[i-1]
				if p.Edge.Dst > e.Edge.Dst || p.Edge.Dst == e.Edge.Dst && p.Timestamp > e.Timestamp {
					t.Fatalf("group (%d,%d): event %d (dst %d, ts %d) after (dst %d, ts %d)",
						g.Type, g.Src, i, e.Edge.Dst, e.Timestamp, p.Edge.Dst, p.Timestamp)
				}
			}
		}
	}
	if at != len(events) {
		t.Fatalf("groups cover %d of %d events", at, len(events))
	}
}

// checkAgainstOracle plans a copy of events with Plan and another with
// sortCut, and asserts both give the same set of groups with the same
// event sequence in each.
func checkAgainstOracle(t testing.TB, events []graph.Event) {
	t.Helper()
	got := slices.Clone(events)
	groups := Plan(got)
	checkPlan(t, got, groups)
	want := map[treeKey][]graph.Event{}
	for _, g := range sortCut(slices.Clone(events)) {
		want[treeKey{g.Type, g.Src}] = g.Events
	}
	if len(groups) != len(want) {
		t.Fatalf("Plan made %d groups, the sort-based planner %d", len(groups), len(want))
	}
	for _, g := range groups {
		if w := want[treeKey{g.Type, g.Src}]; !slices.Equal(g.Events, w) {
			t.Fatalf("group (%d,%d): Plan's events %v, the sort-based planner's %v", g.Type, g.Src, g.Events, w)
		}
	}
}

// TestPlanGroupsBySource: one contiguous group per (type, source), in the
// order the pairs first appear; destination order inside a group, batch
// order on ties; Start locates each group.
func TestPlanGroupsBySource(t *testing.T) {
	events := []graph.Event{
		ev(0, 5, 9, 0), ev(0, 3, 2, 1), ev(0, 5, 1, 2), ev(1, 5, 1, 3), ev(0, 3, 1, 4),
		ev(0, 5, 4, 5), ev(0, 5, 4, 5),
	}
	events[5].Kind = graph.DeleteEdge // a tie with events[6], which comes later in the batch
	groups := Plan(events)
	checkPlan(t, events, groups)
	want := []struct {
		et   graph.EdgeType
		src  graph.VertexID
		dsts []graph.VertexID
	}{
		{0, 5, []graph.VertexID{1, 4, 4, 9}},
		{0, 3, []graph.VertexID{1, 2}},
		{1, 5, []graph.VertexID{1}},
	}
	if len(groups) != len(want) {
		t.Fatalf("got %d groups, want %d", len(groups), len(want))
	}
	for i, w := range want {
		g := groups[i]
		var dsts []graph.VertexID
		for _, e := range g.Events {
			dsts = append(dsts, e.Edge.Dst)
		}
		if g.Type != w.et || g.Src != w.src || !slices.Equal(dsts, w.dsts) {
			t.Fatalf("group %d = (%d,%d) dsts %v, want (%d,%d) dsts %v", i, g.Type, g.Src, dsts, w.et, w.src, w.dsts)
		}
	}
	if tie := groups[0].Events[1:3]; tie[0].Kind != graph.DeleteEdge || tie[1].Kind != graph.AddEdge {
		t.Fatalf("equal (dst, timestamp) events left batch order: %v", tie)
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

// randomBatch draws n events over a few hot sources and a long tail, with
// duplicate edges, equal timestamps, all three kinds and two edge types.
// Each event's weight is its batch position, so reordering is visible.
func randomBatch(rng *rand.Rand, n int) []graph.Event {
	events := make([]graph.Event, n)
	for i := range events {
		src := uint64(rng.Intn(4)) // hot
		if rng.Intn(3) == 0 {
			src = uint64(rng.Intn(4 * n))
		}
		e := ev(graph.EdgeType(rng.Intn(2)), src, uint64(rng.Intn(8)), int64(rng.Intn(3)))
		e.Kind = graph.EventKind(rng.Intn(3))
		e.Edge.Weight = float64(i)
		events[i] = e
	}
	return events
}

// TestPlanMatchesSortOracle: on random batches of many sizes, Plan and the
// sort-based planner give the same groups with the same events in each.
func TestPlanMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := new(plan) // one plan reused across batches, as the pool reuses it
	for _, n := range []int{1, 2, 3, 7, 64, 500, 4096} {
		for rep := 0; rep < 20; rep++ {
			events := randomBatch(rng, n)
			checkAgainstOracle(t, events)
			pooled := slices.Clone(events)
			checkPlan(t, pooled, p.cut(pooled))
		}
	}
}

// FuzzPlan checks Plan against the sort-based planner on batches decoded
// from the fuzzer's bytes, three bytes an event: the type and source, the
// destination, and the kind and timestamp, each from a small range so that
// sources, edges and timestamps repeat.
func FuzzPlan(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 0, 16, 1, 4})
	f.Add([]byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var events []graph.Event
		for i := 0; i+3 <= len(data); i += 3 {
			e := ev(graph.EdgeType(data[i]>>7), uint64(data[i]&31), uint64(data[i+1]&15), int64(data[i+2]>>2&3))
			e.Kind = graph.EventKind(data[i+2] & 3 % 3)
			e.Edge.Weight = float64(i)
			events = append(events, e)
		}
		checkAgainstOracle(t, events)
	})
}

func TestRunAppliesEveryEventExactlyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var events []graph.Event
	for i := 0; i < 10000; i++ {
		events = append(events, ev(graph.EdgeType(rng.Intn(3)),
			uint64(rng.Intn(500)), uint64(rng.Intn(1000)), int64(i)))
	}
	var applied atomic.Int64
	Run(events, 8, func(groups []Group) {
		for _, g := range groups {
			applied.Add(int64(len(g.Events)))
		}
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
	Run(events, 8, func(groups []Group) {
		for _, g := range groups {
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
		}
	})
	for src, n := range seen {
		if n != 1 {
			t.Fatalf("source %d split into %d groups", src, n)
		}
	}
}

func TestRunSingleWorkerSequential(t *testing.T) {
	events := []graph.Event{ev(0, 1, 1, 0), ev(0, 2, 1, 1)}
	var order []graph.VertexID
	calls := 0
	Run(events, 1, func(groups []Group) {
		calls++
		for _, g := range groups {
			order = append(order, g.Src)
		}
	})
	if calls != 1 || len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("%d calls, order = %v", calls, order)
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

// BenchmarkPlan plans one ingest-mixed batch (WeChat-sim scaled to 4M
// forward events, a DynamicMix stream, 2048 forward events and their
// mirrors) over and over, and reports the cost per event.
func BenchmarkPlan(b *testing.B) {
	spec := dataset.WeChatSim()
	spec = spec.Scale(4_000_000 / float64(spec.TotalEvents()))
	batch := dataset.NewGenerator(spec, dataset.DynamicMix, 1).Next(2048)
	work := make([]graph.Event, len(batch))
	p := new(plan)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, batch)
		p.cut(work)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/event")
}
