package pipeline_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"platod2gl/internal/core"
	"platod2gl/internal/dataset"
	"platod2gl/internal/gnn"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/pipeline"
	"platod2gl/internal/sampler"
	"platod2gl/internal/storage"
	"platod2gl/internal/view"
)

// buildClassGraph mirrors the gnn package's homophilous fixture: n vertices
// in `classes` communities, 6 same-class edges each, 8-dim features.
func buildClassGraph(t testing.TB, n, classes int) (view.GraphView, []graph.VertexID) {
	t.Helper()
	store := storage.NewDynamicStore(storage.Options{Tree: core.Options{Capacity: 32}})
	attrs := kvstore.New()
	dataset.AssignFeatures(attrs, 0, uint64(n), 8, classes, 0.3, 1)
	rng := rand.New(rand.NewSource(2))
	byClass := make([][]graph.VertexID, classes)
	ids := make([]graph.VertexID, n)
	for i := 0; i < n; i++ {
		id := graph.MakeVertexID(0, uint64(i))
		ids[i] = id
		l, _ := attrs.Label(id)
		byClass[l] = append(byClass[l], id)
	}
	for _, id := range ids {
		l, _ := attrs.Label(id)
		peers := byClass[l]
		for j := 0; j < 6; j++ {
			store.AddEdge(graph.Edge{Src: id, Dst: peers[rng.Intn(len(peers))], Weight: 1})
		}
	}
	return view.NewLocal(store, attrs, sampler.Options{Parallelism: 2, Seed: 1}), ids
}

// fakeLoader returns batches that carry only their seed slice, tagging
// build order without any training machinery.
func fakeLoader(seeds []graph.VertexID) (*gnn.Batch, error) {
	return &gnn.Batch{Seeds: seeds}, nil
}

func TestSeedBatchesMatchesTrainEpochOrder(t *testing.T) {
	gv, ids := buildClassGraph(t, 100, 3)
	_ = gv
	// Same rng seed → SeedBatches must visit the exact permutation the
	// synchronous TrainEpoch uses (rng.Perm, full batches only).
	rngA := rand.New(rand.NewSource(42))
	batches := pipeline.SeedBatches(ids, 32, rngA)
	rngB := rand.New(rand.NewSource(42))
	perm := rngB.Perm(len(ids))
	if len(batches) != 3 {
		t.Fatalf("got %d batches, want 3 (remainder dropped)", len(batches))
	}
	for bi, b := range batches {
		if len(b) != 32 {
			t.Fatalf("batch %d size %d", bi, len(b))
		}
		for i, id := range b {
			if want := ids[perm[bi*32+i]]; id != want {
				t.Fatalf("batch %d slot %d: %v, want %v", bi, i, id, want)
			}
		}
	}
	if pipeline.SeedBatches(ids, 0, rand.New(rand.NewSource(1))) != nil {
		t.Fatal("batchSize 0 should produce no batches")
	}
}

func TestPipelineDeliversInOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		seedBatches := make([][]graph.VertexID, 17)
		for i := range seedBatches {
			seedBatches[i] = []graph.VertexID{graph.VertexID(i)}
		}
		// Uneven build times scramble completion order across workers;
		// delivery order must stay 0..n-1 regardless.
		load := func(seeds []graph.VertexID) (*gnn.Batch, error) {
			time.Sleep(time.Duration(int(seeds[0])%3) * time.Millisecond)
			return fakeLoader(seeds)
		}
		p := pipeline.Run(seedBatches, load, pipeline.Config{Depth: 4, Workers: workers})
		next := 0
		for {
			r, ok := p.Next()
			if !ok {
				break
			}
			if r.Err != nil {
				t.Fatalf("workers=%d: unexpected error %v", workers, r.Err)
			}
			if r.Index != next {
				t.Fatalf("workers=%d: got index %d, want %d", workers, r.Index, next)
			}
			if r.Batch.Seeds[0] != seedBatches[next][0] {
				t.Fatalf("workers=%d: batch %d carries seeds %v", workers, next, r.Batch.Seeds)
			}
			next++
		}
		if next != len(seedBatches) {
			t.Fatalf("workers=%d: delivered %d batches, want %d", workers, next, len(seedBatches))
		}
		p.Stop()
	}
}

func TestPipelineErrorPropagatesInOrder(t *testing.T) {
	boom := errors.New("shard down")
	seedBatches := make([][]graph.VertexID, 10)
	for i := range seedBatches {
		seedBatches[i] = []graph.VertexID{graph.VertexID(i)}
	}
	const failAt = 6
	load := func(seeds []graph.VertexID) (*gnn.Batch, error) {
		if int(seeds[0]) == failAt {
			return nil, boom
		}
		return fakeLoader(seeds)
	}
	p := pipeline.Run(seedBatches, load, pipeline.Config{Depth: 3, Workers: 3})
	defer p.Stop()
	seen := 0
	for {
		r, ok := p.Next()
		if !ok {
			break
		}
		if r.Err != nil {
			if !errors.Is(r.Err, boom) {
				t.Fatalf("wrong error: %v", r.Err)
			}
			if r.Index != failAt {
				t.Fatalf("error delivered at index %d, want %d", r.Index, failAt)
			}
			// After the in-order error the stream must close.
			if _, ok := p.Next(); ok {
				t.Fatal("stream not closed after delivered error")
			}
			if seen != failAt {
				t.Fatalf("saw %d good batches before the error, want %d", seen, failAt)
			}
			return
		}
		if r.Index != seen {
			t.Fatalf("out of order: %d vs %d", r.Index, seen)
		}
		seen++
	}
	t.Fatal("error was never delivered")
}

func TestPipelineStopReleasesWorkers(t *testing.T) {
	seedBatches := make([][]graph.VertexID, 100)
	for i := range seedBatches {
		seedBatches[i] = []graph.VertexID{graph.VertexID(i)}
	}
	load := func(seeds []graph.VertexID) (*gnn.Batch, error) {
		time.Sleep(200 * time.Microsecond)
		return fakeLoader(seeds)
	}
	p := pipeline.Run(seedBatches, load, pipeline.Config{Depth: 4, Workers: 4})
	// Abandon after 3 batches; Stop must unblock and reap every goroutine.
	for i := 0; i < 3; i++ {
		if _, ok := p.Next(); !ok {
			t.Fatal("stream ended early")
		}
	}
	done := make(chan struct{})
	go func() {
		p.Stop()
		p.Stop() // idempotent
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return")
	}
}

// TestPipelineAbandonNoGoroutineLeak is the shutdown-leak regression test:
// a consumer that stops reading mid-stream and calls Close/Stop must reap
// every pipeline goroutine.
func TestPipelineAbandonNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	seedBatches := make([][]graph.VertexID, 200)
	for i := range seedBatches {
		seedBatches[i] = []graph.VertexID{graph.VertexID(i)}
	}
	load := func(seeds []graph.VertexID) (*gnn.Batch, error) {
		time.Sleep(100 * time.Microsecond)
		return fakeLoader(seeds)
	}
	for round := 0; round < 5; round++ {
		p := pipeline.Run(seedBatches, load, pipeline.Config{Depth: 8, Workers: 4})
		// Read a couple of batches, then walk away mid-stream.
		for i := 0; i < 2; i++ {
			if _, ok := p.Next(); !ok {
				t.Fatal("stream ended early")
			}
		}
		p.Close() // non-blocking abandon
		p.Stop()  // barrier: all goroutines reaped
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

func TestPipelineMetricsHitsAndStalls(t *testing.T) {
	seedBatches := make([][]graph.VertexID, 6)
	for i := range seedBatches {
		seedBatches[i] = []graph.VertexID{graph.VertexID(i)}
	}
	// Slow loader + fast consumer: every read beyond the warm-up stalls.
	var m pipeline.Metrics
	load := func(seeds []graph.VertexID) (*gnn.Batch, error) {
		time.Sleep(2 * time.Millisecond)
		return fakeLoader(seeds)
	}
	p := pipeline.Run(seedBatches, load, pipeline.Config{Depth: 2, Workers: 1, Metrics: &m})
	for {
		if _, ok := p.Next(); !ok {
			break
		}
	}
	p.Stop()
	s := m.Snapshot()
	if s.BatchesBuilt != 6 {
		t.Fatalf("BatchesBuilt = %d", s.BatchesBuilt)
	}
	if s.Stalls == 0 || s.StallNanos == 0 {
		t.Fatalf("slow loader recorded no stalls: %+v", s)
	}

	// Fast loader + slow consumer: after warm-up the next batch is always
	// buffered, so hits dominate.
	var m2 pipeline.Metrics
	p2 := pipeline.Run(seedBatches, fakeLoader, pipeline.Config{Depth: 2, Workers: 1, Metrics: &m2})
	for {
		time.Sleep(2 * time.Millisecond)
		if _, ok := p2.Next(); !ok {
			break
		}
	}
	p2.Stop()
	s2 := m2.Snapshot()
	if s2.PrefetchHits < 4 {
		t.Fatalf("fast loader: hits = %d, want most of 6: %+v", s2.PrefetchHits, s2)
	}
	if got := s2.HitRate(); got <= 0.5 {
		t.Fatalf("HitRate = %.2f", got)
	}
	if s2.String() == "" {
		t.Fatal("empty metrics renderings")
	}
}

// TestPipelinedEpochMatchesSynchronous is the determinism contract: with a
// single worker, a pipelined epoch trains on the same mini-batches in the
// same order and lands on bit-identical losses and parameters.
func TestPipelinedEpochMatchesSynchronous(t *testing.T) {
	gv, ids := buildClassGraph(t, 200, 3)
	syncModel := gnn.NewModel(8, 16, 3, rand.New(rand.NewSource(5)))
	pipeModel := gnn.NewModel(8, 16, 3, rand.New(rand.NewSource(5)))
	syncTr := gnn.NewTrainer(syncModel, gv, 0, 4, 3, 0.02)
	pipeTr := gnn.NewTrainer(pipeModel, gv, 0, 4, 3, 0.02)

	for epoch := 0; epoch < 3; epoch++ {
		syncRes, err := syncTr.TrainEpoch(epoch, ids, 32, rand.New(rand.NewSource(int64(9+epoch))))
		if err != nil {
			t.Fatal(err)
		}
		pipeRes, err := pipeline.TrainEpoch(pipeTr, pipeTr.SampleBatch, epoch,
			ids, 32, rand.New(rand.NewSource(int64(9+epoch))), pipeline.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if syncRes != pipeRes {
			t.Fatalf("epoch %d diverged: sync %+v vs pipelined %+v", epoch, syncRes, pipeRes)
		}
	}
	sp, pp := syncModel.Params(), pipeModel.Params()
	for i := range sp {
		for j := range sp[i].Data {
			if sp[i].Data[j] != pp[i].Data[j] {
				t.Fatalf("param %d[%d] diverged: %v vs %v", i, j, sp[i].Data[j], pp[i].Data[j])
			}
		}
	}
}

// TestPipelinedEpochEmpty covers the no-full-batch edge case.
func TestPipelinedEpochEmpty(t *testing.T) {
	gv, ids := buildClassGraph(t, 20, 2)
	tr := gnn.NewTrainer(gnn.NewModel(8, 8, 2, rand.New(rand.NewSource(1))), gv, 0, 3, 3, 0.01)
	res, err := pipeline.TrainEpoch(tr, tr.SampleBatch, 4, ids[:5], 10, rand.New(rand.NewSource(2)), pipeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 0 || res.MeanLoss != 0 || res.Epoch != 4 {
		t.Fatalf("empty epoch = %+v", res)
	}
}

// TestPipelineOverlapsLatency injects per-call view latency and checks the
// prefetch pipeline actually hides it: a multi-worker pipelined epoch must
// run well under the synchronous epoch's wall-clock.
func TestPipelineOverlapsLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	gv, ids := buildClassGraph(t, 160, 2)
	const delay = 4 * time.Millisecond // 3 view calls per batch → ≥12ms/batch sampling cost
	slow := view.WithLatency(gv, delay)
	syncTr := gnn.NewTrainer(gnn.NewModel(8, 8, 2, rand.New(rand.NewSource(3))), slow, 0, 3, 3, 0.02)
	pipeTr := gnn.NewTrainer(gnn.NewModel(8, 8, 2, rand.New(rand.NewSource(3))), slow, 0, 3, 3, 0.02)

	start := time.Now()
	if _, err := syncTr.TrainEpoch(0, ids, 16, rand.New(rand.NewSource(4))); err != nil {
		t.Fatal(err)
	}
	syncDur := time.Since(start)

	var m pipeline.Metrics
	start = time.Now()
	if _, err := pipeline.TrainEpoch(pipeTr, pipeTr.SampleBatch, 0, ids, 16,
		rand.New(rand.NewSource(4)), pipeline.Config{Depth: 8, Workers: 4, Metrics: &m}); err != nil {
		t.Fatal(err)
	}
	pipeDur := time.Since(start)

	t.Logf("sync=%s pipelined=%s (%.1fx) metrics: %s",
		syncDur, pipeDur, float64(syncDur)/float64(pipeDur), m.Snapshot())
	if pipeDur >= syncDur*8/10 {
		t.Fatalf("pipeline did not overlap latency: sync %s vs pipelined %s", syncDur, pipeDur)
	}
}

// BenchmarkEpoch compares synchronous and pipelined epochs under injected
// per-call sampling latency (the remote-cluster regime the pipeline
// exists for). Run with -bench Epoch -benchtime 3x.
func BenchmarkEpoch(b *testing.B) {
	gv, ids := buildClassGraph(b, 320, 2)
	const delay = 2 * time.Millisecond
	slow := view.WithLatency(gv, delay)
	for _, cfg := range []struct {
		name    string
		workers int
	}{
		{"sync", 0}, {"pipelined-w1", 1}, {"pipelined-w4", 4},
	} {
		b.Run(fmt.Sprintf("%s/delay=%s", cfg.name, delay), func(b *testing.B) {
			tr := gnn.NewTrainer(gnn.NewModel(8, 8, 2, rand.New(rand.NewSource(3))), slow, 0, 3, 3, 0.02)
			rng := rand.New(rand.NewSource(4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if cfg.workers == 0 {
					_, err = tr.TrainEpoch(i, ids, 32, rng)
				} else {
					_, err = pipeline.TrainEpoch(tr, tr.SampleBatch, i, ids, 32, rng,
						pipeline.Config{Depth: 2 * cfg.workers, Workers: cfg.workers})
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
