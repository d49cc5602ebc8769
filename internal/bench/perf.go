// Machine-readable performance benchmark: a pinned-size, deterministic run
// covering the system's hot paths — samtree single-edge and batch update
// throughput, FTS sampling latency quantiles, and pipelined training-epoch
// throughput with its stage breakdown. cmd/platod2gl-bench -json writes the
// result as BENCH_<rev>.json, and internal/bench/regress compares two such
// files in CI to catch performance regressions.
package bench

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"platod2gl/internal/checkpoint"
	"platod2gl/internal/cluster"
	"platod2gl/internal/core"
	"platod2gl/internal/dataset"
	"platod2gl/internal/gnn"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/pipeline"
	"platod2gl/internal/sampler"
	"platod2gl/internal/serve"
	"platod2gl/internal/storage"
	"platod2gl/internal/view"
)

// PerfResult is one benchmark run's machine-readable report. Metric names
// carry their regression direction in the suffix (see regress.DirectionOf):
// *_per_sec is higher-better, *_ns / *_nanos / *_ms / *_bytes are
// lower-better, anything else is informational.
type PerfResult struct {
	Rev     string             `json:"rev"`
	Go      string             `json:"go"`
	Edges   int64              `json:"edges"`
	Seed    int64              `json:"seed"`
	Metrics map[string]float64 `json:"metrics"`
}

// RunPerf executes the benchmark at cfg's scale and returns the report.
// Everything is seeded from cfg.Seed: the same binary at the same scale
// visits identical edges, sampling calls, and training batches.
func RunPerf(cfg Config) PerfResult {
	cfg = cfg.WithDefaults()
	res := PerfResult{
		Go:      runtime.Version(),
		Edges:   cfg.TargetEdges,
		Seed:    cfg.Seed,
		Metrics: make(map[string]float64),
	}
	perfSamtree(cfg, res.Metrics)
	perfEpoch(cfg, res.Metrics)
	perfServe(cfg, res.Metrics)
	perfRPC(cfg, res.Metrics)
	perfOverload(cfg, res.Metrics)
	for k, v := range cluster.CodecBenchMetrics() {
		res.Metrics[k] = v
	}
	return res
}

// perfRPC measures remote sampling throughput through an in-process cluster
// over the binary wire protocol at a pinned workload size. One round is one
// training-loop remote sampling step: a seed-batch neighbor fan-out followed
// by the feature fetch for every sampled neighbor (what Trainer.SampleBatch
// does against a cluster view).
func perfRPC(cfg Config, out map[string]float64) {
	const (
		servers   = 4
		rpcEdges  = 100_000
		seedBatch = 512
		fanout    = 10
		featDim   = 64
		rounds    = 30
	)
	srvM := &cluster.Metrics{}
	lc := cluster.NewLocalClusterOptions(servers, cluster.LocalOptions{
		ServiceFactory: func(int) *cluster.Service {
			svc := cluster.NewService(storage.NewDynamicStore(storage.Options{
				Tree: core.Options{Compress: true}, Workers: cfg.Workers}), kvstore.New())
			svc.SetMetrics(srvM)
			return svc
		},
		Client: cluster.DefaultOptions(),
	})
	defer lc.Shutdown()
	client := lc.Client()

	spec := WeChatScaled(rpcEdges)
	gen := dataset.NewGenerator(spec, dataset.BuildMix, cfg.Seed)
	remaining := int64(rpcEdges)
	for remaining > 0 {
		b := int64(cfg.BatchSize)
		if b > remaining {
			b = remaining
		}
		if err := client.ApplyBatch(gen.Next(int(b))); err != nil {
			panic(fmt.Sprintf("bench: perfRPC ingest: %v", err))
		}
		remaining -= b
	}
	probe := dataset.NewGenerator(spec, dataset.BuildMix, cfg.Seed)
	seeds := make([]graph.VertexID, seedBatch)
	events := probe.Next(seedBatch)
	for i := range seeds {
		seeds[i] = events[i].Edge.Src
	}
	// Populate real feature rows for every node the measured rounds will
	// touch (sampling is seeded, so a warmup pass visits the same
	// frontier). Unpopulated features would come back as all-zero rows —
	// not representative of trained embeddings.
	rng := rand.New(rand.NewSource(cfg.Seed))
	frontier := map[graph.VertexID]bool{}
	for _, s := range seeds {
		frontier[s] = true
	}
	for r := 0; r < rounds; r++ {
		neigh, err := client.SampleNeighbors(seeds, 0, fanout, cfg.Seed+int64(r))
		if err != nil {
			panic(fmt.Sprintf("bench: perfRPC warmup: %v", err))
		}
		for _, n := range neigh {
			frontier[n] = true
		}
	}
	const setChunk = 4096
	nodes := make([]graph.VertexID, 0, len(frontier))
	for n := range frontier {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for lo := 0; lo < len(nodes); lo += setChunk {
		hi := lo + setChunk
		if hi > len(nodes) {
			hi = len(nodes)
		}
		chunk := nodes[lo:hi]
		data := make([]float32, len(chunk)*featDim)
		for i := range data {
			data[i] = rng.Float32()
		}
		if err := client.SetFeatures(chunk, featDim, data, nil); err != nil {
			panic(fmt.Sprintf("bench: perfRPC set features: %v", err))
		}
	}
	// (Warmup SampleNeighbors calls repeat the measured rounds exactly, so
	// they do not skew the per-call payload average.)

	start := time.Now()
	for r := 0; r < rounds; r++ {
		neigh, err := client.SampleNeighbors(seeds, 0, fanout, cfg.Seed+int64(r))
		if err != nil {
			panic(fmt.Sprintf("bench: perfRPC sample: %v", err))
		}
		if _, err := client.Features(neigh, featDim); err != nil {
			panic(fmt.Sprintf("bench: perfRPC features: %v", err))
		}
	}
	out["rpc_sample_wire_per_sec"] = rate(rounds*seedBatch, time.Since(start))
	var sum, count int64
	for _, method := range []string{"SampleNeighbors", "Features"} {
		s := srvM.PayloadBytes.With(method).Snapshot()
		sum += s.Sum
		count += s.Count
	}
	if count > 0 {
		out["rpc_sample_wire_payload_bytes"] = float64(sum) / float64(count)
	}
}

// perfOverload measures interactive goodput through the server-side
// admission gate under deliberate over-subscription: one server with a
// tight gate (1 slot, 2-deep queue) takes budget-bounded sampling calls
// from 32 concurrent workers. Shed calls are retried within the caller's
// budget, so the gated metric is goodput — seeds served per second after
// shedding and retries — not raw offered load. overload_shed_share is
// informational: it reports how hard the gate had to push back, which
// moves with scheduler timing, while goodput should stay stable.
func perfOverload(cfg Config, out map[string]float64) {
	const (
		overEdges  = 50_000
		seedBatch  = 256
		fanout     = 10
		workers    = 32
		totalCalls = 6000
		budget     = 50 * time.Millisecond
	)
	store := storage.NewDynamicStore(storage.Options{
		Tree: core.Options{Compress: true}, Workers: cfg.Workers})
	spec := WeChatScaled(overEdges)
	gen := dataset.NewGenerator(spec, dataset.BuildMix, cfg.Seed)
	remaining := overEdges
	for remaining > 0 {
		b := cfg.BatchSize
		if b > remaining {
			b = remaining
		}
		store.ApplyBatch(gen.Next(b))
		remaining -= b
	}
	srvM := &cluster.Metrics{}
	svc := cluster.NewService(store, kvstore.New())
	svc.SetMetrics(srvM)
	srv := cluster.NewServer(svc)
	srv.SetAdmission(cluster.AdmissionConfig{
		MaxConcurrent: 1, MaxQueue: 2, MaxQueueWait: 2 * time.Millisecond})
	dialer := cluster.Dialer(func() (net.Conn, error) {
		cc, sc := net.Pipe()
		go srv.ServeConn(sc)
		return cc, nil
	})
	opts := cluster.DefaultOptions()
	opts.MaxRetries = 2
	opts.RetryBaseDelay = time.Millisecond
	opts.RetryMaxDelay = 10 * time.Millisecond
	opts.Seed = cfg.Seed
	client := cluster.NewClientOptions(nil, []cluster.Dialer{dialer}, opts)
	defer client.Close()

	probe := dataset.NewGenerator(spec, dataset.BuildMix, cfg.Seed)
	seeds := make([]graph.VertexID, seedBatch)
	events := probe.Next(seedBatch)
	for i := range seeds {
		seeds[i] = events[i].Edge.Src
	}

	var next, good atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r := next.Add(1)
				if r > totalCalls {
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), budget)
				_, err := client.SampleNeighborsCtx(ctx, seeds, 0, fanout, cfg.Seed+r)
				cancel()
				if err == nil {
					good.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	out["overload_goodput_per_sec"] = rate(int(good.Load())*seedBatch, elapsed)
	out["overload_shed_share"] = float64(srvM.RequestsShed.Sum()) / float64(totalCalls)
}

// perfServe measures the online inference tier at a pinned size: embedding
// throughput through the bounded worker pool (serve_embed_per_sec, gated),
// end-to-end k-NN latency — a fresh forward pass plus an HNSW search per
// call (serve_knn_p99_nanos, gated) — and the index's recall@10 against a
// brute-force oracle over the indexed vectors (serve_index_recall_at_10,
// informational: it moves with the HNSW seed rather than with code speed).
func perfServe(cfg Config, out map[string]float64) {
	const (
		n          = 2000
		classes    = 4
		dim        = 16
		f1, f2     = 8, 5
		embedBatch = 64
		knnWarm    = 100
		knnCalls   = 2000
		recallQ    = 100
		k          = 10
	)
	store := storage.NewDynamicStore(storage.Options{
		Tree: core.Options{Compress: true}, Workers: cfg.Workers})
	attrs := kvstore.New()
	dataset.AssignFeatures(attrs, 0, n, dim, classes, 2.0, cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed))
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
		for j := 0; j < 8; j++ {
			store.AddEdge(graph.Edge{Src: id, Dst: peers[rng.Intn(len(peers))], Weight: 1})
		}
	}
	gv := view.NewLocal(store, attrs, sampler.Options{Parallelism: cfg.Workers, Seed: cfg.Seed})
	model := gnn.NewModel(dim, 32, classes, rng)
	tr := gnn.NewTrainer(model, gv, 0, f1, f2, 0.02)
	if _, err := tr.TrainEpoch(0, ids, 64, rng); err != nil {
		panic(fmt.Sprintf("bench: perfServe training: %v", err))
	}

	m := &serve.Metrics{}
	eng, err := serve.New(serve.Config{
		View:  gv,
		State: checkpoint.Capture(checkpoint.Manifest{Seed: cfg.Seed}, model.Params(), nil),
		Rel:   0, F1: f1, F2: f2,
		Workers: cfg.Workers, Timeout: time.Minute,
		IndexSeed: cfg.Seed, Metrics: m,
	})
	if err != nil {
		panic(fmt.Sprintf("bench: perfServe engine: %v", err))
	}
	ctx := context.Background()
	if _, err := eng.Warm(ctx, 256); err != nil {
		panic(fmt.Sprintf("bench: perfServe warm: %v", err))
	}

	start := time.Now()
	for lo := 0; lo < n; lo += embedBatch {
		hi := lo + embedBatch
		if hi > n {
			hi = n
		}
		if _, err := eng.Embed(ctx, ids[lo:hi]); err != nil {
			panic(fmt.Sprintf("bench: perfServe embed: %v", err))
		}
	}
	out["serve_embed_per_sec"] = rate(n, time.Since(start))

	// p99 from the exact sorted durations (not the log2-bucketed histogram,
	// whose power-of-two edges would quantize the gate), after a warmup
	// round so cold caches don't land in the tail.
	durs := make([]time.Duration, 0, knnCalls)
	for i := 0; i < knnWarm+knnCalls; i++ {
		t0 := time.Now()
		if _, _, err := eng.KNN(ctx, ids[(i*13)%n], k); err != nil {
			panic(fmt.Sprintf("bench: perfServe knn: %v", err))
		}
		if i >= knnWarm {
			durs = append(durs, time.Since(t0))
		}
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	out["serve_knn_p99_nanos"] = float64(durs[len(durs)*99/100])

	// Recall@10 against a brute-force oracle over the indexed vectors. Ties
	// are counted by distance, not identity: a returned hit at (or within
	// epsilon of) the oracle's k-th distance is correct even if the oracle
	// broke the tie the other way.
	type pt struct {
		id  uint64
		vec []float32
	}
	pts := make([]pt, 0, n)
	eng.Index().ForEach(func(id uint64, vec []float32) bool {
		pts = append(pts, pt{id, append([]float32(nil), vec...)})
		return true
	})
	sqDist := func(a, b []float32) float64 {
		var s float64
		for i := range a {
			d := float64(a[i]) - float64(b[i])
			s += d * d
		}
		return s
	}
	hits, total := 0, 0
	dists := make([]float64, 0, len(pts))
	for qi := 0; qi < recallQ; qi++ {
		q := pts[(qi*31)%len(pts)]
		dists = dists[:0]
		for _, p := range pts {
			if p.id != q.id {
				dists = append(dists, sqDist(q.vec, p.vec))
			}
		}
		sort.Float64s(dists)
		cutoff := dists[k-1] + 1e-9
		got, err := eng.Index().Search(q.vec, k+1)
		if err != nil {
			panic(fmt.Sprintf("bench: perfServe recall search: %v", err))
		}
		found := 0
		for _, h := range got {
			if h.ID == q.id {
				continue
			}
			if float64(h.Dist) <= cutoff {
				found++
			}
			if found == k {
				break
			}
		}
		hits += found
		total += k
	}
	out["serve_index_recall_at_10"] = float64(hits) / float64(total)
}

// perfSamtree measures single-edge insert/delete throughput, PALM batch
// throughput, and the FTS sampling latency distribution on a store carrying
// cfg.TargetEdges edges.
func perfSamtree(cfg Config, out map[string]float64) {
	m := &storage.Metrics{}
	store := storage.NewDynamicStore(storage.Options{
		Tree: core.Options{Compress: true}, Workers: cfg.Workers, Metrics: m})
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := int(cfg.TargetEdges)
	// Power-of-two source space keeps trees a few hundred entries deep at
	// the default scale — representative of real per-vertex degrees.
	srcSpace := n / 256
	if srcSpace < 16 {
		srcSpace = 16
	}
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{
			Src:    graph.MakeVertexID(0, uint64(rng.Intn(srcSpace))),
			Dst:    graph.MakeVertexID(0, uint64(rng.Intn(n))),
			Weight: 1 + rng.Float64(),
		}
	}

	start := time.Now()
	for _, e := range edges {
		store.AddEdge(e)
	}
	out["samtree_insert_per_sec"] = rate(n, time.Since(start))

	// FTS sampling: k draws per call across the populated sources. The
	// latency distribution comes from the store's own histogram, so the
	// quantiles cover exactly the measured descents.
	const sampleCalls = 20_000
	const fanout = 10
	buf := make([]graph.VertexID, 0, fanout)
	start = time.Now()
	for i := 0; i < sampleCalls; i++ {
		src := graph.MakeVertexID(0, uint64(rng.Intn(srcSpace)))
		buf = store.SampleNeighbors(src, 0, fanout, rng, buf[:0])
	}
	out["fts_sample_per_sec"] = rate(sampleCalls, time.Since(start))
	s := m.SampleLatency.Snapshot()
	out["fts_sample_p50_ns"] = float64(s.P50())
	out["fts_sample_p95_ns"] = float64(s.P95())
	out["fts_sample_p99_ns"] = float64(s.P99())

	// PALM batch path at the configured batch size, on a fresh store so
	// inserts dominate (matching the build workload).
	batchStore := storage.NewDynamicStore(storage.Options{
		Tree: core.Options{Compress: true}, Workers: cfg.Workers})
	spec := WeChatScaled(cfg.TargetEdges)
	batches := PrepareBatches(spec, dataset.BuildMix, n/cfg.BatchSize+1, cfg.BatchSize, cfg.Seed)
	events := 0
	start = time.Now()
	for _, b := range batches {
		batchStore.ApplyBatch(b)
		events += len(b)
	}
	out["samtree_batch_events_per_sec"] = rate(events, time.Since(start))

	// Deletes against the populated store, visiting the inserted edges.
	start = time.Now()
	for _, e := range edges {
		store.DeleteEdge(e.Src, e.Dst, e.Type)
	}
	out["samtree_delete_per_sec"] = rate(n, time.Since(start))
}

// perfEpoch measures pipelined training-epoch throughput on the RunGNN
// workload shape, reporting batches/s plus the pipeline's per-stage
// breakdown (build vs consumer stall).
func perfEpoch(cfg Config, out map[string]float64) {
	const (
		n       = 2000
		classes = 4
		dim     = 16
		epochs  = 3
	)
	store := storage.NewDynamicStore(storage.Options{
		Tree: core.Options{Compress: true}, Workers: cfg.Workers})
	attrs := kvstore.New()
	dataset.AssignFeatures(attrs, 0, n, dim, classes, 2.0, cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed))
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
		for j := 0; j < 8; j++ {
			store.AddEdge(graph.Edge{Src: id, Dst: peers[rng.Intn(len(peers))], Weight: 1})
		}
	}

	model := gnn.NewModel(dim, 32, classes, rng)
	gv := view.NewLocal(store, attrs, sampler.Options{Parallelism: cfg.Workers, Seed: cfg.Seed})
	tr := gnn.NewTrainer(model, gv, 0, 8, 5, 0.02)
	pm := &pipeline.Metrics{}
	pcfg := pipeline.Config{Depth: 4, Workers: 2, Metrics: pm}

	batchesRun := 0
	start := time.Now()
	for e := 0; e < epochs; e++ {
		res, err := pipeline.TrainEpoch(tr, tr.SampleBatch, e, ids, 64, rng, pcfg)
		if err != nil {
			panic(fmt.Sprintf("bench: perf epoch %d: %v", e, err))
		}
		batchesRun += res.Batches
	}
	wall := time.Since(start)
	out["epoch_batches_per_sec"] = rate(batchesRun, wall)

	ps := pm.Snapshot()
	if ps.BatchesBuilt > 0 {
		out["pipeline_build_mean_ns"] = float64(ps.BuildNanos) / float64(ps.BatchesBuilt)
	}
	// Stall time and hit rate are informational (no gated suffix): stalls
	// collapse to ~0 on fast machines and would make the gate flaky.
	out["pipeline_stall_share"] = float64(ps.StallNanos) / float64(wall)
	out["pipeline_hit_rate"] = ps.HitRate()
}

// rate converts an operation count over a wall duration into ops/s.
func rate(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// sortedKeys returns m's keys in lexical order for deterministic output.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// RunPerfTable runs the benchmark and prints the metrics as a table — the
// human-readable form of the same experiment ("perf" in -experiment).
func RunPerfTable(cfg Config) {
	cfg = cfg.WithDefaults()
	header(cfg, "Performance benchmark (machine-readable via -json)")
	res := RunPerf(cfg)
	w := tab(cfg)
	fmt.Fprintln(w, "metric\tvalue")
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(w, "%s\t%.4g\n", k, res.Metrics[k])
	}
	w.Flush()
}
