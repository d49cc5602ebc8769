package storage

import (
	"testing"

	"platod2gl/internal/core"
	"platod2gl/internal/dataset"
	"platod2gl/internal/graph"
)

// Sinks keep the trees the allocation tests build on the heap, as the store
// keeps them, whatever escape analysis would make of a local.
var (
	sinkTree  *core.Tree
	sinkEntry *treeEntry
)

// TestTreeAllocs pins the heap objects of a one-leaf samtree: creating one
// and inserting its first neighbor allocates the node and the node's two
// backing arrays (suffixes and Fenwick weights), plus the Tree for
// core.NewTree, or the entry that holds the Tree by value for the store.
func TestTreeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, compress := range []bool{true, false} {
		opt := core.Options{Compress: compress}
		id := uint64(graph.MakeVertexID(1, 42))
		if got := testing.AllocsPerRun(100, func() {
			sinkTree = core.NewTree(opt)
			sinkTree.Insert(id, 1)
		}); got != 4 {
			t.Errorf("compress=%v: NewTree + first Insert allocates %.0f times, want 4", compress, got)
		}
		if got := testing.AllocsPerRun(100, func() {
			sinkEntry = newEntry(opt)
			sinkEntry.tree.Insert(id, 1)
		}); got != 4 {
			t.Errorf("compress=%v: a store entry + first Insert allocates %.0f times, want 4", compress, got)
		}
	}
}

// ingestBatch builds a store and a batch at ingest-mixed's shape: WeChat-sim
// scaled to 4M forward events, a DynamicMix stream, 100 000 forward events
// preloaded in 2048-event batches (4096 events with their mirrors).
func ingestBatch(opt Options) (*DynamicStore, *dataset.Generator) {
	spec := dataset.WeChatSim()
	spec = spec.Scale(4_000_000 / float64(spec.TotalEvents()))
	gen := dataset.NewGenerator(spec, dataset.DynamicMix, 1)
	s := NewDynamicStore(opt)
	for n := 0; n < 100_000; n += 2048 {
		s.ApplyBatch(gen.Next(2048))
	}
	return s, gen
}

// TestApplyBatchAllocs pins ApplyBatch's own allocations on a warmed store:
// an ingest-mixed batch re-applied until no tree grows any more costs one
// allocation per batch (the closure of the one goroutine that a second
// worker starts), none per group or per event.
func TestApplyBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	s, gen := ingestBatch(Options{Tree: core.Options{Compress: true}, Workers: 2})
	batch := gen.Next(2048)
	work := make([]graph.Event, len(batch))
	apply := func() {
		copy(work, batch)
		s.ApplyBatch(work)
	}
	for i := 0; i < 3; i++ {
		apply()
	}
	if got := testing.AllocsPerRun(20, apply); got != 1 {
		t.Fatalf("ApplyBatch of %d events allocates %.0f times per batch, want 1", len(batch), got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkStoreApplyBatch streams ingest-mixed's 4096-event batches into
// a store preloaded as ingestBatch describes, and reports the cost per event.
func BenchmarkStoreApplyBatch(b *testing.B) {
	s, gen := ingestBatch(Options{Tree: core.Options{Compress: true}})
	b.ReportAllocs()
	b.ResetTimer()
	events := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		batch := gen.Next(2048)
		events += len(batch)
		b.StartTimer()
		s.ApplyBatch(batch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}
